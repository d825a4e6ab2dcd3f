"""CLI for offline trace analysis: ``python -m repro.core.offline``.

Runs Algorithm 1 (+ suppressions + report formatting) over a trace produced
by :func:`repro.core.trace.save_trace`, outside the "Valgrind framework" —
the paper's Section VII future-work deployment.

``--stats[=json|pretty|prom]`` appends the observability document: offline
phase timings (load / analysis / suppress / report) plus the recording
run's embedded stats block, which carries the cost-model virtual time of
the instrumented execution.  With ``--json``, the stats document is
embedded in the report document under the ``"stats"`` key so the output
stays one parseable JSON object.

Damaged traces degrade, they don't crash: a truncated or corrupted file is
salvaged to its longest valid prefix, the analysis runs over what survived,
and the output carries an explicit coverage warning (exit code still 0/1 by
race count).  ``--strict-trace`` restores fail-stop behavior: any damage
exits 2 with the taxonomy error's actionable message.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.reports import format_report, report_to_dict
from repro.core.trace import analyze_trace_with_stats
from repro.errors import TraceError


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON from save_trace()")
    parser.add_argument("--workers", type=int, default=1,
                        help="pair-check worker threads (default: 1)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    parser.add_argument("--suggest", action="store_true",
                        help="append fix suggestions to each report")
    parser.add_argument("--stats", nargs="?", const="pretty", default=None,
                        choices=["json", "pretty", "prom"],
                        help="emit the observability document "
                             "(phase timings, counters, record-run stats); "
                             "'prom' renders Prometheus text exposition")
    parser.add_argument("--profile", metavar="OUT.json", default=None,
                        help="write an analyze-side taskgrind-profile/1 "
                             "document (count-axis buckets + phase timers; "
                             "the virtual-time axis is empty offline)")
    parser.add_argument("--explain", action="store_true",
                        help="append a provenance witness to each report "
                             "(task ancestry, common ancestor, hb evidence)")
    parser.add_argument("--trace-timeline", metavar="OUT.json", default=None,
                        help="export the analysis timeline (Chrome "
                             "trace-event JSON; wall-clock axis offline)")
    parser.add_argument("--strict-trace", action="store_true",
                        help="fail (exit 2) on any trace damage instead of "
                             "salvaging the longest valid prefix")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_timeline is not None:
        from repro.obs.tracer import get_tracer
        tracer = get_tracer()
        tracer.enable()
    prof = None
    reg_baseline = None
    if args.profile is not None:
        from repro.obs.metrics import get_registry
        from repro.obs.prof import get_profiler
        prof = get_profiler()
        prof.enable()
        prof.meta.update({"trace": args.trace, "axis": "counts-only"})
        reg_baseline = get_registry().mark()
    try:
        reports, stats = analyze_trace_with_stats(
            args.trace, workers=args.workers,
            explain=args.explain, strict=args.strict_trace)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.export(args.trace_timeline)
        tracer.disable()
    if prof is not None:
        from repro.obs.metrics import get_registry
        from repro.obs.profdoc import save_profile
        phases = get_registry().delta_since(reg_baseline).get("phases")
        save_profile(args.profile, prof, phases=phases)
        prof.disable()
        print(f"wrote analyze-side profile to {args.profile}",
              file=sys.stderr)
    if args.json:
        doc = {
            "tool": "taskgrind",
            "protocol": 1,
            "error_count": len(reports),
            "errors": [report_to_dict(r) for r in reports],
        }
        if args.stats is not None:
            doc["stats"] = stats
        print(json.dumps(doc, indent=2))
    else:
        coverage = stats.get("coverage")
        if coverage is not None and not coverage["complete"]:
            seg = coverage["segments"]
            total = seg["total"] if seg["total"] is not None else "?"
            print(f"WARNING: trace damaged — salvaged "
                  f"{seg['recovered']}/{total} segments "
                  f"({coverage['chunks']['corrupt']} bad chunk(s), last good "
                  f"vtime {coverage['last_good_vtime']:.0f}); results below "
                  f"cover the recovered prefix only\n")
        resilience = stats["analysis"]["resilience"]
        if not resilience["complete"]:
            pairs = resilience["pairs"]
            print(f"WARNING: analysis incomplete — "
                  f"{resilience['chunks']['quarantined']} chunk(s) "
                  f"quarantined, {pairs['unchecked']} of {pairs['total']} "
                  f"candidate pairs unchecked\n")
        print(f"{len(reports)} determinacy race(s)\n")
        for report in reports:
            print(format_report(report))
            if args.suggest:
                from repro.core.assistant import render_suggestions
                print(render_suggestions(report))
            print()
        if args.stats == "json":
            print(json.dumps(stats, indent=2))
        elif args.stats == "prom":
            from repro.obs.metrics import get_registry
            sys.stdout.write(get_registry().render_prom())
        elif args.stats == "pretty":
            from repro.obs.metrics import get_registry
            print(get_registry().render())
    return 0 if not reports else 1


if __name__ == "__main__":
    sys.exit(main())
