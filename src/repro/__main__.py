"""``python -m repro`` — the harness launcher.

Subcommands map one-to-one to the paper's artifacts::

    python -m repro table1            # Table I verdict matrix
    python -m repro table2            # Table II LULESH matrix
    python -m repro fig4 [--romp]     # Fig. 4 sweep
    python -m repro errorreport       # Listings 4-6
    python -m repro extras            # the beyond-the-paper suite
    python -m repro stability         # verdict stability across seeds
    python -m repro offline TRACE     # offline analysis of a saved trace
    python -m repro run PROGRAM       # one program under one tool
    python -m repro replay SCHEDULE   # deterministic two-phase replay
    python -m repro perf              # perf gate: perfbench outputs vs
                                      # the committed BENCH_perf.json
    python -m repro fuzz              # differential schedule-fuzzing
    python -m repro faults            # resilience self-test (fault matrix)
    python -m repro profile           # overhead-attribution profiles
                                      # (run/diff/show/check)
    python -m repro serve             # the trace-ingestion HTTP server
                                      # (--smoke: record/upload/diff check)

Global flags (work with every subcommand)::

    --stats [json|pretty|prom]        # print the observability document
                                      # (phase wall/virtual timings, counters,
                                      # per-tool stats) after the subcommand;
                                      # 'prom' renders Prometheus text
                                      # exposition format; a bare --stats is
                                      # 'pretty' (--stats=MODE works too)
    --trace-timeline OUT.json         # record the execution timeline and
                                      # export Chrome trace-event JSON
                                      # (virtual-time axis; load in Perfetto)

A subcommand that parses one of these itself gets it as typed when it
follows the subcommand's name: ``offline`` parses both (``offline T
--json --stats`` prints one JSON document, the stats embedded), ``run``
parses ``--trace-timeline``.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple

COMMANDS = {
    "table1": "repro.bench.table1",
    "table2": "repro.bench.table2",
    "fig4": "repro.bench.fig4",
    "errorreport": "repro.bench.errorreport",
    "extras": "repro.bench.extras",
    "stability": "repro.bench.stability",
    "offline": "repro.core.offline",
    "run": "repro.bench.runner",
    "replay": "repro.replay.cli",
    "perf": "repro.bench.perf",
    "fuzz": "repro.fuzz.cli",
    "faults": "repro.faults.selftest",
    "profile": "repro.obs.profdoc",
    "serve": "repro.serve.cli",
}

STATS_MODES = ("json", "pretty", "prom")

#: the global flags a subcommand parses itself
OWN_FLAGS = {
    "offline": ("--stats", "--trace-timeline"),
    "run": ("--trace-timeline",),
}


def _extract_stats_flag(argv: List[str]) -> Tuple[List[str], Optional[str]]:
    """Strip a launcher-level ``--stats [MODE]`` / ``--stats=MODE`` from
    anywhere.  A bare ``--stats`` takes the next word as its mode only
    when that word is one of :data:`STATS_MODES`."""
    out: List[str] = []
    mode: Optional[str] = None
    for i, arg in enumerate(argv):
        if arg == "--stats":
            mode = "pretty"
        elif arg in STATS_MODES and i and argv[i - 1] == "--stats":
            mode = arg
        elif arg.startswith("--stats="):
            value = arg.split("=", 1)[1]
            if value not in STATS_MODES:
                print(f"unknown --stats mode {value!r} "
                      "(expected json, pretty or prom)", file=sys.stderr)
                value = "pretty"
            mode = value
        else:
            out.append(arg)
    return out, mode


def _extract_timeline_flag(argv: List[str]
                           ) -> Tuple[List[str], Optional[str]]:
    """Strip a launcher-level ``--trace-timeline OUT`` / ``=OUT``."""
    out: List[str] = []
    path: Optional[str] = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--trace-timeline":
            if i + 1 >= len(argv):
                print("--trace-timeline needs an output path",
                      file=sys.stderr)
            else:
                path = argv[i + 1]
                i += 1
        elif arg.startswith("--trace-timeline="):
            path = arg.split("=", 1)[1]
        else:
            out.append(arg)
        i += 1
    return out, path


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    own = OWN_FLAGS.get(argv[0], ()) if argv else ()
    stats_mode = timeline_path = None
    if "--stats" not in own:
        argv, stats_mode = _extract_stats_flag(argv)
    if "--trace-timeline" not in own:
        argv, timeline_path = _extract_timeline_flag(argv)
    if not argv or argv[0] in ("-h", "--help") or argv[0] not in COMMANDS:
        print(__doc__)
        return 0 if argv and argv[0] in ("-h", "--help") else 2
    tracer = None
    if timeline_path is not None:
        from repro.obs.tracer import get_tracer
        tracer = get_tracer()
        tracer.enable()
    import importlib
    module = importlib.import_module(COMMANDS[argv[0]])
    rc = module.main(argv[1:])
    if tracer is not None:
        tracer.export(timeline_path)
        tracer.disable()
        print(f"wrote timeline to {timeline_path} ({len(tracer)} events)")
    if stats_mode is not None:
        from repro.obs.metrics import get_registry
        registry = get_registry()
        if stats_mode == "json":
            import json
            print(json.dumps(registry.snapshot(), indent=2))
        elif stats_mode == "prom":
            sys.stdout.write(registry.render_prom())
        else:
            print(registry.render())
    return rc


if __name__ == "__main__":
    sys.exit(main())
