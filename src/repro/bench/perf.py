"""Perf gate: real-run layer times and the record-sync speedup vs the
committed baseline.

The CI ``perf-gate`` job runs the end-to-end benchmark briefly on every
workload and hands the outputs to this gate::

    for wl in fib lulesh trace serve; do
        python3 perfbench/run.py --workload "$wl" --seed 7 --seconds 1 \\
            --trace 1 > "perfbench-$wl.out"
    done
    PYTHONPATH=src python -m repro.bench.perf --baseline BENCH_perf.json \\
        --json BENCH_perf.fresh.json fib=perfbench-fib.out \\
        lulesh=perfbench-lulesh.out trace=perfbench-trace.out \\
        serve=perfbench-serve.out

Each ``name=path`` names a workload and a file whose last line is the
JSON result of a ``perfbench/run.py --trace 1`` run: per-layer medians in
ms at reference speed, plus counts.  A workload given more than once is
reduced to each metric's median over its runs; the committed ``layers``
block is that median over five runs per workload of the command above.

Against the baseline document the gate checks two blocks:

* ``layers`` — every workload in it must have a run that reports
  ``"correct": true`` and ``"failed": 0``.  Its count metrics (segments,
  recorded accesses, context switches, candidate pairs, HB queries per
  tier, suppressed pairs) must equal the baseline exactly: the seed fixes
  them, so a changed count is a changed run.  Each ``*_ms`` layer must
  stay at or under ``LAYER_SLACK × baseline + LAYER_GRACE_MS``.
* ``record_sync`` — the access stream of a fib and a heat run is
  captured and replayed through the tool twice, fully recorded and with
  ``record_mode="sync"`` (which only counts accesses); the speedup of
  the sync pass must stay above ``1 − RECORD_SYNC_TOLERANCE`` times the
  baseline's.

A breach lists every breached ``workload/metric``, adds a blame line
naming the time layer of a breached workload that grew most against its
ceiling, and exits 1.  A baseline that cannot be read, or has no entry
for a workload given or gated, exits 3 (``EXIT_BASELINE_UNUSABLE``).

``--json`` writes the fresh ``runs``, ``layers`` and ``record_sync``
blocks; a baseline is re-recorded by copying the blocks it gates from
such a document.  The document's ``serve`` block is the serve load
bench's baseline (``python -m repro.bench.serve --baseline``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.machine.debuginfo import Symbol
from repro.machine.machine import Machine
from repro.openmp.api import make_env
from repro.workloads.synthetic import omp_fib, omp_heat

#: an ``*_ms`` layer breaches above ``LAYER_SLACK × baseline +
#: LAYER_GRACE_MS``: the grace absorbs sub-ms layers, the slack the
#: run-to-run spread of the long ones
LAYER_SLACK = 2.0
LAYER_GRACE_MS = 1.0

#: record-sync bench: workloads, replay cap, timing repeats (the min is
#: kept) and the allowed fractional drop below the committed speedup.
#: One repeat is how CI has always run it; warmer full passes at three
#: repeats put fib's ratio near its floor on a 2-core VM (26.5-37.8x vs
#: 28.7x over 10 runs)
RECORD_SYNC_WORKLOADS = ("fib", "heat")
MAX_EVENTS = 250_000
REPEATS = 1
RECORD_SYNC_TOLERANCE = 0.4

ELEMENT_BYTES = 8

#: exit code for an unusable baseline (missing file, bad JSON, no entry
#: for a gated workload), distinct from 1 (a real regression) so a CI
#: failure is attributable at a glance
EXIT_BASELINE_UNUSABLE = 3


def load_baseline(path: str) -> Optional[Dict]:
    """The perf document at ``path``, or None with the reason on stderr."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"cannot read baseline {path}: {exc}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"baseline {path} is not valid JSON: {exc}", file=sys.stderr)
        return None
    if not isinstance(doc, dict):
        print(f"baseline {path} is not a JSON object", file=sys.stderr)
        return None
    return doc


# ---------------------------------------------------------------------------
# record-sync: full vs sync-only recording of one captured access stream
# ---------------------------------------------------------------------------

def capture(workload: str) -> List[Tuple[int, int, int, bool]]:
    """Run ``workload`` under Taskgrind on one thread, seed 0; return its
    raw access stream."""
    machine = Machine(seed=0)
    tool = TaskgrindTool(TaskgrindOptions())
    machine.add_tool(tool)
    source = {"fib": "fib.c", "heat": "heat.c"}[workload]
    env = make_env(machine, nthreads=1, source_file=source)
    env.rt.ompt.register(tool.make_ompt_shim())
    tool.builder.access_log = []
    if workload == "fib":
        machine.run(lambda: omp_fib(env, 18))
    else:
        machine.run(lambda: omp_heat(env, n=512, steps=8, chunks=8))
    return tool.builder.access_log


def expand_elements(stream: List[Tuple[int, int, int, bool]],
                    max_events: int) -> Tuple[List[Tuple[int, int, int, bool]],
                                              int]:
    """Split bulk ranges into 8-byte element accesses, capped at
    ``max_events``; returns (events, number of raw records dropped)."""
    out: List[Tuple[int, int, int, bool]] = []
    for k, (sid, addr, size, w) in enumerate(stream):
        if size <= ELEMENT_BYTES:
            out.append((sid, addr, size, w))
        else:
            end = addr + size
            for a in range(addr, end, ELEMENT_BYTES):
                out.append((sid, a, min(ELEMENT_BYTES, end - a), w))
        if len(out) >= max_events:
            return out[:max_events], len(stream) - (k + 1)
    return out, 0


def _replay_tool(events: List[Tuple[int, int, int, bool]], *, sync: bool
                 ) -> Tuple[float, TaskgrindTool]:
    """Replay the captured stream through a real tool's access handler.

    This times exactly the work ``record_mode="sync"`` elides: the stream
    goes through :meth:`TaskgrindTool.on_access` — symbol filter, budget
    check, write-combining recorder — in full mode, and through the
    rebound counter-bump handler in sync mode.  The segment id from the
    capture doubles as the thread id, so the full-mode replay keeps the
    capture's per-segment partitioning.
    """
    opts = TaskgrindOptions()
    opts.record_mode = "sync" if sync else "full"
    machine = Machine(seed=0)
    tool = TaskgrindTool(opts)
    machine.add_tool(tool)
    symbol = Symbol("bench_stream", file="bench.c")
    on_access = tool.on_access
    t0 = time.perf_counter()
    for sid, addr, size, w in events:
        on_access(sid, addr, size, w, symbol, None, None, False)
    for seg in tool.builder.graph.segments:
        seg.flush_accesses()
    return time.perf_counter() - t0, tool


def bench_record_sync(events: List[Tuple[int, int, int, bool]],
                      repeats: int) -> Dict[str, float]:
    """Record-phase cost of the two-phase first pass vs full recording."""
    full = min(_replay_tool(events, sync=False)[0] for _ in range(repeats))
    sync = min(_replay_tool(events, sync=True)[0] for _ in range(repeats))
    # the sync pass must observe every access without recording any, and
    # the full pass must record every one — else the timing compares
    # different work, not the same work done two ways
    _, tf = _replay_tool(events, sync=False)
    _, ts = _replay_tool(events, sync=True)
    assert tf.recorded_accesses == len(events), "full replay dropped accesses"
    assert ts.sync_skipped == len(events), "sync replay missed accesses"
    assert ts.recorded_accesses == 0, "sync replay recorded evidence"
    return {"full_s": full, "sync_s": sync,
            "speedup": full / sync if sync else float("inf")}


def run_record_sync() -> Dict[str, Dict[str, float]]:
    """The fresh ``record_sync`` block: one capture and bench per workload."""
    out = {}
    for wl in RECORD_SYNC_WORKLOADS:
        events, dropped = expand_elements(capture(wl), MAX_EVENTS)
        if dropped:
            print(f"[{wl}] event cap hit: {dropped} raw records dropped",
                  file=sys.stderr)
        out[wl] = bench_record_sync(events, REPEATS)
    return out


# ---------------------------------------------------------------------------
# real-run layers
# ---------------------------------------------------------------------------

def read_result(path: str) -> Dict:
    """The result line of a ``perfbench/run.py`` output file.

    A file without one reads as an incorrect run with no metrics.
    """
    try:
        with open(path) as fh:
            last = [ln for ln in fh.read().splitlines() if ln.strip()][-1]
        result = json.loads(last)
        if isinstance(result, dict) and isinstance(result.get("metrics"),
                                                   dict):
            return result
    except (OSError, IndexError, ValueError):
        pass
    print(f"no perfbench result line in {path}", file=sys.stderr)
    return {"correct": False, "failed": 0, "metrics": {}}


def summarize(runs: Dict[str, List[Dict]]) -> Dict:
    """The fresh document: run checks and per-metric medians per workload."""
    checks, layers = {}, {}
    for wl, results in runs.items():
        checks[wl] = {"count": len(results),
                      "correct": all(r.get("correct") is True
                                     for r in results),
                      "failed": sum(r.get("failed", 0) for r in results)}
        names = dict.fromkeys(n for r in results for n in r["metrics"])
        layers[wl] = {n: statistics.median(r["metrics"][n]["value"]
                                           for r in results
                                           if n in r["metrics"])
                      for n in names}
    return {"bench": "perf", "runs": checks, "layers": layers}


def compare_to_baseline(fresh: Dict, baseline: Dict) -> Tuple[bool, List[str]]:
    """The CI regression gate: fresh runs and record-sync vs baseline.

    Every run given must pass its checks, whether or not the baseline
    has its workload.  Returns ``(ok, report_lines)``; on failure the
    last lines name every breached ``workload/metric`` and blame the time
    layer of a breached workload that grew most against its ceiling.
    """
    lines: List[str] = []
    breached: List[str] = []
    #: per workload, its time layer highest against its ceiling
    worst: Dict[str, Tuple[float, str, float, Optional[float], float]] = {}

    def row(item: str, text: str, ok: bool) -> None:
        lines.append(f"{item:<28} {text}  {'ok' if ok else 'REGRESSION'}")
        if not ok:
            breached.append(item)

    runs = fresh.get("runs", {})
    base_layers = baseline.get("layers", {})
    for wl in dict.fromkeys([*runs, *base_layers]):
        run = runs.get(wl)
        if run is None:
            row(f"{wl}/run", "no run given", False)
            continue
        row(f"{wl}/run", f"{run['count']} run(s), correct "
                         f"{str(run['correct']).lower()}, {run['failed']} "
                         "failed attempt(s)",
            run["correct"] and not run["failed"])
        got_layers = fresh["layers"].get(wl, {})
        for name, base in base_layers.get(wl, {}).items():
            item = f"{wl}/{name}"
            got = got_layers.get(name)
            if not name.endswith("_ms"):
                shown = "lost" if got is None else f"{got:.10g}"
                row(item, f"baseline {base:.10g}  fresh {shown}  must equal",
                    got == base)
                continue
            ceiling = LAYER_SLACK * base + LAYER_GRACE_MS
            ratio = float("inf") if got is None else got / ceiling
            if wl not in worst or ratio > worst[wl][0]:
                worst[wl] = (ratio, item, base, got, ceiling)
            shown = "lost" if got is None else f"{got:.2f}"
            row(item, f"baseline {base:.2f}  fresh {shown}  "
                      f"ceiling {ceiling:.2f} ms", ratio <= 1.0)
    for wl, base_rs in baseline.get("record_sync", {}).items():
        base = base_rs["speedup"]
        got = fresh.get("record_sync", {}).get(wl, {}).get("speedup", 0.0)
        floor = base * (1.0 - RECORD_SYNC_TOLERANCE)
        row(f"{wl}/record_sync", f"baseline {base:.2f}x  fresh {got:.2f}x  "
                                 f"floor {floor:.2f}x", got >= floor)
    if breached:
        lines.append("breached: " + ", ".join(breached))
        blamed = [worst[wl] for wl in {b.split("/")[0] for b in breached}
                  if wl in worst]
        if blamed:
            ratio, item, base, got, ceiling = max(blamed)
            shown = "lost" if got is None else f"{got:.2f} ms"
            lines.append(f"blame: {item} grew most against its ceiling "
                         f"({base:.2f} -> {shown}, {ratio:.0%} of "
                         f"{ceiling:.2f} ms)")
    return not breached, lines


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="*", metavar="NAME=PATH",
                    help="a workload and a perfbench/run.py --trace 1 "
                         "output; repeat a workload to gate its medians")
    ap.add_argument("--baseline", metavar="PATH", default=None,
                    help="committed BENCH_perf.json to gate against")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write the fresh document here")
    args = ap.parse_args(argv)
    runs: Dict[str, List[Dict]] = {}
    for spec in args.runs:
        name, sep, path = spec.partition("=")
        if not (sep and name and path):
            ap.error(f"expected NAME=PATH, got {spec!r}")
        runs.setdefault(name, []).append(read_result(path))
    baseline: Dict = {}
    if args.baseline is not None:
        baseline = load_baseline(args.baseline)
        if baseline is None:
            return EXIT_BASELINE_UNUSABLE
        missing = [f"layers.{wl}" for wl in runs
                   if wl not in baseline.get("layers", {})]
        missing += [f"record_sync.{wl}" for wl in RECORD_SYNC_WORKLOADS
                    if wl not in baseline.get("record_sync", {})]
        if missing:
            print(f"baseline {args.baseline} has no entry for "
                  f"{', '.join(missing)}; re-record it from this gate's "
                  "--json output", file=sys.stderr)
            return EXIT_BASELINE_UNUSABLE

    fresh = summarize(runs)
    fresh["record_sync"] = run_record_sync()
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(fresh, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    ok, lines = compare_to_baseline(fresh, baseline)
    print(f"perf gate vs {args.baseline or 'no baseline'} (time ceiling "
          f"{LAYER_SLACK:g}x + {LAYER_GRACE_MS:g} ms, record-sync floor "
          f"{RECORD_SYNC_TOLERANCE:.0%} below):")
    for line in lines:
        print(f"  {line}")
    if not ok:
        print("perf regression gate FAILED", file=sys.stderr)
        return 1
    print("perf regression gate passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
