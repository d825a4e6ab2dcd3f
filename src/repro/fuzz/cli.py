"""``python -m repro.fuzz`` — drive the differential fuzz campaign.

Exit status 0 when every program agrees across all oracles and schedules;
1 when any divergence survived (after shrinking); 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.errors import OutputError
from repro.fuzz.diff import (run_differential, run_fault_differential,
                             run_two_phase_differential)
from repro.fuzz.executors import fuzz_options
from repro.fuzz.gen import generate
from repro.fuzz.shrink import load_reproducer, shrink, write_reproducer
from repro.fuzz.spec import FAMILIES
from repro.obs.metrics import get_registry
from repro.obs.session import command_session, write_json

DEFAULT_CORPUS = "tests/fuzz/corpus"

#: suppression classes the CLI can intentionally break (the harness
#: self-test: each must make the oracle diverge, not stay silent)
BREAKABLE = {
    "recycling": {"suppress_recycling": False},
    "stack": {"suppress_stack": False},
    "tls": {"suppress_tls": False},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="differential schedule-fuzzing of Taskgrind vs the "
                    "baseline detectors")
    parser.add_argument("--seeds", type=int, default=25,
                        help="number of generator seeds (default 25)")
    parser.add_argument("--schedules", type=int, default=4,
                        help="scheduler seeds per program (default 4)")
    parser.add_argument("--budget", type=float, default=0,
                        help="wall-clock budget in seconds; 0 = run all "
                             "seeds (the seed count is the budget)")
    parser.add_argument("--base-seed", type=int, default=1,
                        help="first generator seed (default 1)")
    parser.add_argument("--families", default=",".join(FAMILIES),
                        help="comma list of families to draw from")
    parser.add_argument("--corpus-dir", default=DEFAULT_CORPUS,
                        help="where minimized reproducers are written")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write a machine-readable campaign report here")
    parser.add_argument("--profile", metavar="OUT.json", default=None,
                        help="enable the attribution profiler for the whole "
                             "campaign and write one aggregated "
                             "taskgrind-profile/1 document")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimizing them")
    parser.add_argument("--break-suppression", choices=sorted(BREAKABLE),
                        default=None,
                        help="intentionally disable one suppression class "
                             "(harness self-test: must produce divergences)")
    parser.add_argument("--faults", action="store_true",
                        help="fault-injection campaign: drive each program "
                             "through the resilient pipeline under every "
                             "builtin fault plan and assert the salvaged "
                             "report set is a subset of the fault-free "
                             "run's (no shrinking in this mode)")
    parser.add_argument("--two-phase", action="store_true",
                        help="two-phase campaign: for each schedule seed, "
                             "record sync-only, round-trip the schedule "
                             "document, replay with full instrumentation, "
                             "and assert the replayed verdict equals the "
                             "single-pass verdict (no shrinking)")
    parser.add_argument("--reproducer", default=None, metavar="FILE",
                        help="run one corpus reproducer instead of "
                             "generating seeds (combines with --two-phase "
                             "to replay-check a pinned program)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.faults and args.two_phase:
        print("--faults and --two-phase are separate campaigns; pick one",
              file=sys.stderr)
        return 2
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        print(f"unknown families: {unknown} (choose from {FAMILIES})",
              file=sys.stderr)
        return 2

    overrides = dict(BREAKABLE[args.break_suppression]) \
        if args.break_suppression else {}

    pinned = None
    if args.reproducer is not None:
        try:
            pinned, _expect, repro_options, note = \
                load_reproducer(args.reproducer)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load reproducer: {exc}", file=sys.stderr)
            return 2
        overrides.update(repro_options)
        print(f"reproducer {args.reproducer}: {pinned.family} "
              f"seed={pinned.seed} ({note or 'no note'})")
    options = fuzz_options(**overrides)
    mode = ("fault" if args.faults else "two-phase" if args.two_phase
            else "fuzz")
    try:
        with command_session(profile=args.profile,
                             meta={"campaign": mode, "seeds": args.seeds,
                                   "schedules": args.schedules,
                                   "base_seed": args.base_seed}):
            report = _campaign(args, families, overrides, options, pinned)
        divergent = report["divergent"]
        status = "FAIL" if divergent else "ok"
        ran = len(report["seeds"])
        total = 1 if pinned is not None else args.seeds
        if ran < total:
            print(f"budget exhausted after {ran}/{total} seeds")
        print(f"{mode} campaign: {ran} programs x {args.schedules} "
              f"schedules, {len(divergent)} divergent -> {status}")
        if args.json_out:
            write_json("campaign report", args.json_out, report,
                       sort_keys=True)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if divergent else 0


def _campaign(args, families: List[str], overrides: dict, options,
              pinned) -> dict:
    """The campaign's report: one ``seeds`` entry per seed run (fewer
    when the budget ran out), one ``divergent`` entry per divergence."""
    registry = get_registry()
    deadline = time.monotonic() + args.budget if args.budget > 0 else None
    schema = ("taskgrind-fault-campaign/1" if args.faults
              else "taskgrind-two-phase-campaign/1" if args.two_phase
              else "taskgrind-fuzz-campaign/1")
    report = {"schema": schema,
              "seeds": [], "divergent": [], "config": {
                  "schedules": args.schedules, "families": families,
                  "base_seed": args.base_seed,
                  "break_suppression": args.break_suppression,
                  "faults": args.faults, "two_phase": args.two_phase,
                  "reproducer": args.reproducer}}
    total = 1 if pinned is not None else args.seeds
    with registry.phase("fuzz.campaign"):
        for i in range(total):
            if deadline is not None and time.monotonic() > deadline:
                break
            if pinned is not None:
                seed, program = pinned.seed, pinned
            else:
                seed = args.base_seed + i
                family = families[seed % len(families)]
                program = generate(seed, family=family)
            if args.faults:
                result = run_fault_differential(program,
                                                schedules=args.schedules)
            elif args.two_phase:
                result = run_two_phase_differential(
                    program, schedules=args.schedules,
                    taskgrind_options=options)
            else:
                result = run_differential(program, schedules=args.schedules,
                                          taskgrind_options=options)
            report["seeds"].append({
                "seed": seed, "family": program.family,
                "digest": program.digest(),
                "truth": sorted(result.truth), "kinds": result.kinds()})
            if result.ok:
                continue
            print(f"DIVERGENCE {result.summary()}")
            for d in result.divergences:
                print(f"  {d}")
            entry = {"seed": seed, "family": program.family,
                     "kinds": result.kinds(),
                     "divergences": [str(d) for d in result.divergences],
                     "program": json.loads(program.to_json())}
            if not args.no_shrink and not args.faults \
                    and not args.two_phase and pinned is None:
                kinds = set(result.kinds())

                def still_fails(candidate) -> bool:
                    r = run_differential(candidate,
                                         schedules=args.schedules,
                                         taskgrind_options=options)
                    # any surviving original divergence kind keeps the
                    # candidate (incidental kinds may drop during shrinking)
                    return bool(kinds & set(r.kinds()))

                with registry.phase("fuzz.shrink"):
                    small, spent = shrink(program, still_fails)
                final = run_differential(small, schedules=args.schedules,
                                         taskgrind_options=options)
                path = write_reproducer(
                    small, args.corpus_dir, kinds=final.kinds(),
                    options=overrides,
                    note=f"shrunk from seed {seed} in {spent} candidates"
                         + (f" (break={args.break_suppression})"
                            if args.break_suppression else ""))
                print(f"  shrunk {program.op_count()} -> "
                      f"{small.op_count()} ops; reproducer: {path}")
                entry["reproducer"] = path
                entry["shrunk_program"] = json.loads(small.to_json())
            report["divergent"].append(entry)
    return report


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
