"""``python -m repro replay SCHEDULE`` — deterministic replay of a run.

Re-executes the program recorded in a ``taskgrind-schedule/1`` document,
pinned to the recorded interleaving, with full access instrumentation
restored.  Partial replay narrows the scope::

    python -m repro replay sched.json                    # full replay
    python -m repro replay sched.json --addr-range 0x1000:0x2000
    python -m repro replay sched.json --pairs 3:7,4:9
    python -m repro replay sched.json --verify-single-pass

Exit status: 0 no races; 1 races reported; 2 usage / unreadable or
corrupt schedule / unwritable ``--json`` path; 3 the replay diverged
from the recording; 4 the ``--verify-single-pass`` parity check failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import OutputError, ReplayDivergenceError, ScheduleError
from repro.obs.session import write_json
from repro.replay.filter import ReplayFilter
from repro.replay.replay import replay_bench
from repro.replay.schedule import load_schedule


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="replay a recorded schedule with full instrumentation")
    parser.add_argument("schedule", help="a taskgrind-schedule/1 document "
                                         "(see repro run --record sync)")
    parser.add_argument("--addr-range", metavar="LO:HI", action="append",
                        default=[],
                        help="partial replay: record only bytes inside "
                             "this half-open range (repeatable; 0x ok)")
    parser.add_argument("--pairs", metavar="I:J[,K:L...]", action="append",
                        default=[],
                        help="partial replay: keep only race candidates "
                             "between these segment-id pairs (repeatable)")
    parser.add_argument("--explain", action="store_true",
                        help="attach provenance witnesses to reports")
    parser.add_argument("--no-vclock-check", action="store_true",
                        help="skip the exact vclock checkpoint assertions "
                             "(still checks picks/segments/edges/allocs)")
    parser.add_argument("--verify-single-pass", action="store_true",
                        help="also run the program single-pass (full "
                             "recording, no pinning) and assert the "
                             "replayed verdicts match on the filtered "
                             "scope")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write a machine-readable replay report here")
    return parser


def _canon_reports(reports, flt: Optional[ReplayFilter]):
    """Reports as comparable (s1, s2, ranges) keys, scoped by ``flt``.

    Applying ``flt`` to a *full* run's reports yields exactly what a
    partial replay should report — the parity oracle for --verify-single-pass.
    """
    out = set()
    for r in reports:
        if flt is not None and not flt.admits_pair(r.s1.id, r.s2.id):
            continue
        pairs = []
        for lo, hi in r.ranges.pairs():
            if flt is not None and flt.filters_addresses:
                pairs.extend(flt.clip(lo, hi))
            else:
                pairs.append((lo, hi))
        if not pairs:
            continue        # report entirely outside the address scope
        out.add((r.s1.id, r.s2.id, tuple(sorted(pairs))))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flt = ReplayFilter.parse(args.addr_range, args.pairs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not flt.addr_ranges and not flt.pairs:
        flt = None

    try:
        doc = load_schedule(args.schedule)
    except ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"loaded schedule: {doc.summary()}")

    from repro.core.tool import TaskgrindOptions
    options = TaskgrindOptions(explain=args.explain)
    report_doc = {"schema": "taskgrind-replay/1",
                  "schedule": doc.counts(),
                  "program": doc.program,
                  "filter": flt.describe() if flt is not None else None,
                  "diverged": None, "reports": [], "parity": None}
    try:
        result, session = replay_bench(
            doc, replay_filter=flt, options=options,
            check_vclock=not args.no_vclock_check)
    except ReplayDivergenceError as exc:
        print(f"REPLAY DIVERGED: {exc}", file=sys.stderr)
        report_doc["diverged"] = exc.to_dict()
        return _finish(args.json_out, report_doc, 3)
    except ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"replay held: {session.picks_used} picks, "
          f"{session.segments_checked} segments, "
          f"{session.edges_checked} edges, "
          f"{session.allocs_checked} allocs verified"
          + ("" if args.no_vclock_check
             else " (vclock checkpoints exact)"))
    from repro.core.reports import format_report
    for report in result.reports:
        print()
        print(format_report(report))
    report_doc["reports"] = [
        {"s1": r.s1.id, "s2": r.s2.id,
         "ranges": [[lo, hi] for lo, hi in r.ranges.pairs()]}
        for r in result.reports]

    if args.verify_single_pass:
        from repro.bench.runner import _find_program, run_benchmark
        ref = doc.program
        single_opts = TaskgrindOptions(explain=args.explain)
        for key, value in ref.get("options", {}).items():
            setattr(single_opts, key, value)
        single = run_benchmark(_find_program(ref["name"]), "taskgrind",
                               nthreads=ref["nthreads"], seed=ref["seed"],
                               taskgrind_options=single_opts)
        want = _canon_reports(single.reports, flt)
        got = _canon_reports(result.reports, None if flt is None else flt)
        ok = want == got
        report_doc["parity"] = {
            "ok": ok,
            "single_pass_reports": len(single.reports),
            "replayed_reports": len(result.reports)}
        if ok:
            scope = "filtered scope" if flt is not None else "full scope"
            print(f"parity: replayed verdicts identical to single-pass "
                  f"on the {scope} ({len(got)} report key(s))")
        else:
            print("PARITY MISMATCH vs single-pass run:", file=sys.stderr)
            for key in sorted(want - got):
                print(f"  single-pass only: {key}", file=sys.stderr)
            for key in sorted(got - want):
                print(f"  replay only: {key}", file=sys.stderr)
            return _finish(args.json_out, report_doc, 4)
    return _finish(args.json_out, report_doc, 1 if result.reports else 0)


def _finish(path: Optional[str], doc: dict, rc: int) -> int:
    """Write the verdict document when asked, then exit ``rc``; an
    unwritable path exits 2."""
    if path:
        try:
            write_json("replay report", path, doc, sort_keys=True)
        except OutputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return rc


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
