"""Resilience self-test: ``python -m repro faults``.

Runs the fixed builtin fault matrix (one plan per fault class) through the
full resilient pipeline and checks, for every plan, the three graceful-
degradation invariants the resilience layer promises:

1. **fired** — the planned fault actually triggered (a chaos test whose
   fault misses its trigger index proves nothing);
2. **no escape** — no unhandled exception left the pipeline: crashes are
   salvaged, trace damage is recovered, analysis failures are quarantined;
3. **subset** — the degraded run's report set is a subset of the fault-free
   baseline's (degradation may lose races, it must never invent them).

Exit code 0 when every plan upholds all three, 1 otherwise; ``--json``
emits the per-plan verdict document (the chaos-smoke CI artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional, Set, Tuple

from repro.core.tool import TaskgrindOptions
from repro.core.trace import analyze_trace_with_stats, save_trace
from repro.errors import InjectedFault
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan, builtin_matrix

#: default guinea pig: racy (missing dependence), several tasks, several
#: mallocs — every builtin trigger index exists
DEFAULT_PROGRAM = "027-taskdependmissing-orig"


def _report_keys(reports) -> Set[Tuple[str, str]]:
    """Normalize reports to comparable label-pair keys."""
    return {r.key() for r in reports}


def _options() -> TaskgrindOptions:
    # a short per-chunk deadline so a planted hang quarantines instead of
    # stalling
    return TaskgrindOptions(analysis_workers=2, analysis_deadline_s=0.1,
                            analysis_max_retries=1)


def run_plan(plan: FaultPlan, *, program_name: str = DEFAULT_PROGRAM,
             nthreads: int = 2, seed: int = 0,
             baseline_keys: Optional[Set[Tuple[str, str]]] = None) -> dict:
    """One plan through run → save → salvage-load → analyze; verdict doc."""
    from repro.bench.runner import _find_program, run_benchmark
    program = _find_program(program_name)
    assert program is not None, f"unknown program {program_name!r}"

    if baseline_keys is None:
        baseline = run_benchmark(program, "taskgrind", nthreads=nthreads,
                                 seed=seed, taskgrind_options=_options())
        baseline_keys = _report_keys(baseline.reports)

    verdict = {
        "plan": plan.name,
        "fired": {},
        "escaped": None,
        "run_verdict": None,
        "salvaged_reports": 0,
        "offline_reports": None,
        "coverage_complete": None,
        "subset_ok": None,
        "ok": False,
    }
    tmpdir = tempfile.mkdtemp(prefix="taskgrind-faults-")
    trace_path = os.path.join(tmpdir, "faulted.trace.json")
    try:
        result = run_benchmark(program, "taskgrind", nthreads=nthreads,
                               seed=seed, taskgrind_options=_options(),
                               fault_plan=plan, keep_machine=True)
        verdict["run_verdict"] = result.verdict.name
        verdict["salvaged_reports"] = result.report_count
        run_keys = _report_keys(result.reports)
        fired = dict(plan.fired_summary())

        offline_keys: Set[Tuple[str, str]] = set()
        if result.machine is not None and result.tool_obj is not None:
            try:
                with inject_plan(plan):
                    save_trace(result.tool_obj, result.machine, trace_path)
            except InjectedFault:
                pass            # writer died; tmp cleaned, target untouched
            for name, count in plan.fired_summary().items():
                fired[name] = fired.get(name, 0) + count
        if os.path.exists(trace_path):
            reports, stats = analyze_trace_with_stats(trace_path, workers=2)
            offline_keys = _report_keys(reports)
            verdict["offline_reports"] = len(reports)
            verdict["coverage_complete"] = stats["coverage"]["complete"]
        verdict["fired"] = fired
        verdict["escaped"] = False
        # subset: neither the salvaged run nor the offline pass over the
        # damaged trace may report a race the clean baseline did not
        extra = (run_keys | offline_keys) - baseline_keys
        verdict["subset_ok"] = not extra
        if extra:
            verdict["extra_reports"] = sorted(map(list, extra))
        verdict["ok"] = (any(fired.values()) and verdict["subset_ok"])
    except Exception as exc:   # an escape IS the failure being tested for
        verdict["escaped"] = repr(exc)
        verdict["ok"] = False
    finally:
        for name in os.listdir(tmpdir):
            os.unlink(os.path.join(tmpdir, name))
        os.rmdir(tmpdir)
    return verdict


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro faults", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--program", default=DEFAULT_PROGRAM,
                        help="benchmark program to torture "
                             f"(default {DEFAULT_PROGRAM})")
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", metavar="KIND@AT", default=None,
                        help="run a single builtin plan by name")
    parser.add_argument("--json", action="store_true",
                        help="emit the verdict document as JSON")
    args = parser.parse_args(argv)

    plans = builtin_matrix()
    if args.only is not None:
        plans = [p for p in plans if p.name == args.only]
        if not plans:
            print(f"no builtin plan named {args.only!r}", file=sys.stderr)
            return 2

    from repro.bench.runner import _find_program, run_benchmark
    program = _find_program(args.program)
    if program is None:
        print(f"unknown program {args.program!r}", file=sys.stderr)
        return 2
    baseline = run_benchmark(program, "taskgrind", nthreads=args.threads,
                             seed=args.seed, taskgrind_options=_options())
    baseline_keys = _report_keys(baseline.reports)

    verdicts = [run_plan(plan, program_name=args.program,
                         nthreads=args.threads, seed=args.seed,
                         baseline_keys=baseline_keys)
                for plan in plans]
    failed = [v for v in verdicts if not v["ok"]]
    doc = {
        "schema": "taskgrind-faults-selftest/1",
        "program": args.program,
        "threads": args.threads,
        "seed": args.seed,
        "baseline_reports": len(baseline_keys),
        "plans": verdicts,
        "ok": not failed,
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        for v in verdicts:
            status = "ok" if v["ok"] else "FAIL"
            fired = sum(v["fired"].values()) if v["fired"] else 0
            detail = (f"run={v['run_verdict']} fired={fired} "
                      f"salvaged={v['salvaged_reports']} "
                      f"offline={v['offline_reports']}")
            if v["escaped"]:
                detail += f" ESCAPED={v['escaped']}"
            elif v["subset_ok"] is False:
                detail += " SPURIOUS-REPORTS"
            print(f"{status:>4}  {v['plan']:<20} {detail}")
        print(f"\n{len(verdicts) - len(failed)}/{len(verdicts)} fault "
              f"classes degrade gracefully "
              f"(baseline: {len(baseline_keys)} report(s))")
    return 0 if not failed else 1


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
