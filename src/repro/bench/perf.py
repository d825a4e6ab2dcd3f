"""Perf bench: record/analyze phase timings for the fast-path layer.

Times the two hot paths this repo optimizes — access recording and the
Algorithm 1 analysis — on three workloads (fib, heat, LULESH-small), each
measured **legacy vs fast**:

* **record** — the access stream captured from a real instrumented run is
  replayed into fresh segments twice: through the legacy per-access
  ``IntervalTree.insert`` path and through the write-combining recorder,
  which drains into flat interval sets.  Bulk ``read_range``/
  ``write_range`` intervals are expanded into 8-byte element accesses
  first (capped, reported) so the replay has DBI-per-instruction
  granularity like the real tool.
* **analyze** — the run's segment graph is analyzed twice: with the pre-PR
  implementation (bitmask-DP happens-before + tree-walk intersections over
  interval trees built from the segments' sets) and with the fast path
  (the numpy kernel over the flat interval sets).

Both phases assert bit-identical results (access sets, candidate sets)
between the two implementations before reporting any numbers, and the tool
emits ``BENCH_perf.json`` so future PRs have a trajectory.

Usage: ``python -m repro.bench.perf [--json BENCH_perf.json]
[--max-events 250000] [--repeats 3] [--skip-lulesh]
[--baseline BENCH_perf.json --tolerance 0.4]``

``--baseline`` turns the run into a regression gate (the CI ``perf-gate``
job): each workload's fresh ``combined_speedup`` is compared against the
committed baseline and the run fails (exit 1) only when a workload fell
more than ``--tolerance`` (fraction, default 0.4) below it — loose enough
to absorb shared-runner noise, tight enough to catch a real fast-path
regression.

Every workload's entry also carries a ``stats`` block — the observability
registry's per-phase wall/virtual timings plus the record counters from
the capture run (write-combining hit/spill/flush mix, translation counts)
— and a ``profile`` block: the attribution profiler's per-class virtual
op totals from the (untimed) capture run, so a gate breach can name the
instrumentation class whose cost grew, not just the phase that slowed.
``--profiles-dir DIR`` additionally writes the full per-workload
``taskgrind-profile/1`` documents there for CI artifact upload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.analysis import RaceCandidate, find_races
from repro.core.segments import MAX_LOC_SAMPLES, Segment, SegmentGraph
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.machine.debuginfo import Symbol
from repro.machine.machine import Machine
from repro.obs.metrics import get_registry
from repro.openmp.api import make_env
from repro.util.intervals import IntervalSet
from repro.util.itree import IntervalTree
from repro.workloads.lulesh import LuleshConfig, run_lulesh
from repro.workloads.synthetic import omp_fib, omp_heat

ELEMENT_BYTES = 8


# ---------------------------------------------------------------------------
# capture: run a workload under Taskgrind with the access-log hook on
# ---------------------------------------------------------------------------

def capture(workload: str, *, nthreads: int = 1, seed: int = 0
            ) -> Tuple[SegmentGraph, List[Tuple[int, int, int, bool]]]:
    """Run ``workload`` instrumented; return (graph, raw access stream)."""
    machine = Machine(seed=seed)
    tool = TaskgrindTool(TaskgrindOptions())
    machine.add_tool(tool)
    source = {"fib": "fib.c", "heat": "heat.c",
              "lulesh": "lulesh.cc"}[workload]
    env = make_env(machine, nthreads=nthreads, source_file=source)
    env.rt.ompt.register(tool.make_ompt_shim())
    tool.builder.access_log = []

    if workload == "fib":
        entry = lambda: omp_fib(env, 18)                     # noqa: E731
    elif workload == "heat":
        entry = lambda: omp_heat(env, n=512, steps=8,        # noqa: E731
                                 chunks=8)
    else:
        entry = lambda: run_lulesh(                          # noqa: E731
            env, LuleshConfig(s=16, tel=4, tnl=4, iterations=4,
                              progress=True))
    machine.run(entry)
    return tool.builder.graph, tool.builder.access_log


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


# ---------------------------------------------------------------------------
# record phase: replay the same stream through both recorder paths
# ---------------------------------------------------------------------------

class _TreeSegment:
    """Replica of the original recorder: one coalescing tree insert per
    access into a read and a write :class:`IntervalTree`."""

    __slots__ = ("reads", "writes", "loc_samples")

    def __init__(self) -> None:
        self.reads = IntervalTree()
        self.writes = IntervalTree()
        self.loc_samples: list = []

    def record(self, addr: int, size: int, is_write: bool, loc) -> None:
        (self.writes if is_write else self.reads).insert(addr, addr + size)
        if len(self.loc_samples) < MAX_LOC_SAMPLES:
            self.loc_samples.append((addr, addr + size, is_write, loc))

    def flush_accesses(self) -> None:
        pass


def _replay(events: List[Tuple[int, int, int, bool]], *, immediate: bool
            ) -> Tuple[float, Dict[int, Segment]]:
    segs: Dict[int, Segment] = {}
    t0 = time.perf_counter()
    for sid, addr, size, w in events:
        seg = segs.get(sid)
        if seg is None:
            seg = segs[sid] = (_TreeSegment() if immediate
                               else Segment(sid, 0, None, "task"))
        seg.record(addr, size, w, None)
    for seg in segs.values():
        seg.flush_accesses()
    return time.perf_counter() - t0, segs


def bench_record(events: List[Tuple[int, int, int, bool]], repeats: int
                 ) -> Dict[str, float]:
    legacy = min(_replay(events, immediate=True)[0] for _ in range(repeats))
    fast = min(_replay(events, immediate=False)[0] for _ in range(repeats))
    # parity: both paths must record byte-identical access sets
    _, a = _replay(events, immediate=True)
    _, b = _replay(events, immediate=False)
    assert a.keys() == b.keys()
    for sid in a:
        assert a[sid].reads.pairs() == b[sid].reads.pairs(), \
            f"segment {sid}: read sets differ"
        assert a[sid].writes.pairs() == b[sid].writes.pairs(), \
            f"segment {sid}: write sets differ"
    return {"legacy_s": legacy, "fast_s": fast,
            "speedup": legacy / fast if fast else float("inf")}


# ---------------------------------------------------------------------------
# record-sync phase: the two-phase first pass vs full recording
# ---------------------------------------------------------------------------

def _replay_tool(events: List[Tuple[int, int, int, bool]], *, sync: bool
                 ) -> Tuple[float, TaskgrindTool]:
    """Replay the captured stream through a real tool's raw access path.

    This times exactly the work ``record_mode="sync"`` elides: the stream
    goes through :meth:`TaskgrindTool.on_access_raw` — symbol filter,
    budget check, write-combining recorder — in full mode, and through the
    rebound counter-bump handler in sync mode.  The segment id from the
    capture doubles as the thread id so the full-mode replay builds the
    same per-segment partitioning as :func:`_replay`.
    """
    opts = TaskgrindOptions()
    opts.record_mode = "sync" if sync else "full"
    machine = Machine(seed=0)
    tool = TaskgrindTool(opts)
    machine.add_tool(tool)
    symbol = Symbol("bench_stream", file="bench.c")
    on_access_raw = tool.on_access_raw
    t0 = time.perf_counter()
    for sid, addr, size, w in events:
        on_access_raw(sid, addr, size, w, symbol, None)
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


# ---------------------------------------------------------------------------
# analyze phase: pre-PR pass vs fast pass on the same graph
# ---------------------------------------------------------------------------

def _canon(cands: List[RaceCandidate]) -> List[Tuple]:
    return sorted((c.key(), tuple(c.ranges.pairs())) for c in cands)


def _legacy_trees(graph: SegmentGraph) -> Dict[int, _TreeSegment]:
    """Per-segment read and write trees, as the original recorder held them."""
    out: Dict[int, _TreeSegment] = {}
    for seg in graph.segments:
        t = out[seg.id] = _TreeSegment()
        for tree, flat in ((t.reads, seg.reads), (t.writes, seg.writes)):
            for lo, hi in flat.pairs():
                tree.insert(lo, hi)
    return out


def _legacy_candidate_pairs(segs: List[_TreeSegment]
                            ) -> Set[Tuple[int, int]]:
    """Replica of the pre-PR candidate sweep: every access interval sorted
    by address, an active list pruned by end address, a Python set of
    index pairs sharing a byte with at least one write."""
    events = []
    for idx, seg in enumerate(segs):
        for iv in seg.writes:
            events.append((iv.lo, iv.hi, idx, True))
        for iv in seg.reads:
            events.append((iv.lo, iv.hi, idx, False))
    events.sort(key=lambda e: (e[0], e[1]))
    pairs: Set[Tuple[int, int]] = set()
    active: List[Tuple[int, int, bool]] = []        # (hi, idx, is_write)
    for lo, hi, idx, is_write in events:
        active = [a for a in active if a[0] > lo]
        for _ahi, aidx, awrite in active:
            if aidx != idx and (is_write or awrite):
                pairs.add((aidx, idx) if aidx < idx else (idx, aidx))
        active.append((hi, idx, is_write))
    return pairs


def _conflict_ranges_tree(s1: _TreeSegment, s2: _TreeSegment
                          ) -> IntervalSet:
    """Replica of the pre-PR conflict computation: tree-walk
    intersections."""
    out = s1.writes.intersection_tree(s2.writes)
    out = out.union(s1.writes.intersection_tree(s2.reads))
    out = out.union(s2.writes.intersection_tree(s1.reads))
    return out


def _analyze_once(graph: SegmentGraph, *,
                  legacy: Optional[Dict[int, _TreeSegment]] = None
                  ) -> List[RaceCandidate]:
    """One analysis pass: the legacy replica over ``legacy``'s trees, or
    the current :func:`find_races` when ``legacy`` is None."""
    if legacy is not None:
        # replica of the original indexed pass: bitmask DP only,
        # tree-walk conflict intersections
        segs = [s for s in graph.segments if s.has_accesses]
        trees = [legacy[s.id] for s in segs]
        reach = graph._reachability()
        out: List[RaceCandidate] = []
        for i, j in sorted(_legacy_candidate_pairs(trees)):
            s1, s2 = segs[i], segs[j]
            if reach[s1.id] >> s2.id & 1 or reach[s2.id] >> s1.id & 1:
                continue
            ranges = _conflict_ranges_tree(trees[i], trees[j])
            if ranges:
                out.append(RaceCandidate(s1, s2, ranges))
        return out
    # the fast side is the full current stack: order-maintenance index +
    # the batched numpy conflict kernel
    return find_races(graph).candidates


def bench_analyze(graph: SegmentGraph, repeats: int) -> Dict[str, float]:
    trees = _legacy_trees(graph)        # the original recorder's output

    def run(legacy: bool) -> Tuple[float, List[RaceCandidate]]:
        graph._reach = None                 # cold DP, like a fresh finalize
        t0 = time.perf_counter()
        cands = _analyze_once(graph, legacy=trees if legacy else None)
        return time.perf_counter() - t0, cands

    legacy = min(run(True)[0] for _ in range(repeats))
    fast = min(run(False)[0] for _ in range(repeats))
    _, a = run(True)
    _, b = run(False)
    assert _canon(a) == _canon(b), "fast analyze changed the candidate set"
    return {"legacy_s": legacy, "fast_s": fast,
            "speedup": legacy / fast if fast else float("inf"),
            "candidates": len(a)}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_perf(*, workloads=("fib", "heat", "lulesh"), max_events: int = 250_000,
             repeats: int = 3, profiles_dir: Optional[str] = None) -> Dict:
    from repro.obs.prof import get_profiler
    results: Dict[str, Dict] = {}
    reg = get_registry()
    prof = get_profiler()
    if profiles_dir is not None:
        os.makedirs(profiles_dir, exist_ok=True)
    for wl in workloads:
        reg.reset()                      # per-workload phase breakdown
        # the capture run is untimed, so profiling it is free: the class
        # totals ride along in the doc and the gate can blame a bucket
        prof.enable()
        prof.meta.update({"bench": "perf", "workload": wl, "seed": 0})
        graph, raw = capture(wl)
        snap = reg.snapshot()
        profile_block = {"classes": prof.class_totals(),
                         "vtime_ops": prof.total_ops}
        if profiles_dir is not None:
            from repro.obs.profdoc import save_profile
            save_profile(os.path.join(profiles_dir, f"{wl}.profile.json"),
                         prof, phases=snap["phases"])
        # timed sections below must see the disabled-profiler fast path
        prof.disable()
        stats = {
            "phases": snap["phases"],
            "record_counters": {k: v for k, v in snap["counters"].items()
                                if k.startswith(("record.", "vex."))},
        }
        events, dropped = expand_elements(raw, max_events)
        if dropped:
            print(f"[{wl}] event cap hit: {dropped} raw records dropped "
                  f"(raise --max-events for full coverage)", file=sys.stderr)
        hb = graph.hb_index
        rec = bench_record(events, repeats)
        rec_sync = bench_record_sync(events, repeats)
        ana = bench_analyze(graph, repeats)
        combined_legacy = rec["legacy_s"] + ana["legacy_s"]
        combined_fast = rec["fast_s"] + ana["fast_s"]
        results[wl] = {
            "segments": len(graph.segments),
            "edges": graph.edge_count,
            "raw_records": len(raw),
            "events": len(events),
            "events_dropped": dropped,
            "hb_exact": hb.exact if hb is not None else False,
            "hb_inexact_reason": hb.inexact_reason if hb is not None else None,
            "record": rec,
            "record_sync": rec_sync,
            "analyze": ana,
            "combined_speedup": (combined_legacy / combined_fast
                                 if combined_fast else float("inf")),
            "stats": stats,
            "profile": profile_block,
        }
    return {
        "bench": "perf",
        "element_bytes": ELEMENT_BYTES,
        "max_events": max_events,
        "repeats": repeats,
        "workloads": results,
    }


def render(results: Dict) -> str:
    lines = ["workload   phase     legacy_s   fast_s     speedup",
             "-" * 52]
    for wl, r in results["workloads"].items():
        for phase in ("record", "analyze"):
            p = r[phase]
            lines.append(f"{wl:<10} {phase:<9} {p['legacy_s']:<10.4f} "
                         f"{p['fast_s']:<10.4f} {p['speedup']:.2f}x")
        rs = r.get("record_sync")
        if rs:
            lines.append(f"{wl:<10} {'rec-sync':<9} {rs['full_s']:<10.4f} "
                         f"{rs['sync_s']:<10.4f} {rs['speedup']:.2f}x")
        lines.append(f"{wl:<10} {'combined':<9} "
                     f"{r['record']['legacy_s'] + r['analyze']['legacy_s']:<10.4f} "
                     f"{r['record']['fast_s'] + r['analyze']['fast_s']:<10.4f} "
                     f"{r['combined_speedup']:.2f}x"
                     f"   (hb {'exact' if r['hb_exact'] else 'fallback'},"
                     f" {r['events']} events, {r['segments']} segments)")
    return "\n".join(lines)


def _blame_buckets(fresh: Dict, baseline: Dict,
                   breached: List[str]) -> List[str]:
    """Name the instrumentation class responsible for each breach.

    Uses the per-class virtual op totals both documents embed (the
    ``profile`` block from the capture run): the class whose op count
    grew most from baseline to fresh is the prime suspect.  A breach
    with no op-count growth is timing-side (runner noise, interpreter
    change), which is itself a useful verdict.
    """
    from repro.obs.profdoc import top_regressing_class
    out: List[str] = []
    seen: List[str] = []
    for item in breached:
        wl = item.split("/", 1)[0]
        if wl in seen:
            continue
        seen.append(wl)
        if wl not in baseline.get("workloads", {}) \
                or wl not in fresh.get("workloads", {}):
            continue        # non-workload breach (e.g. serve/*): blamed apart
        base = baseline["workloads"][wl].get("profile", {}).get("classes")
        got = fresh["workloads"][wl].get("profile", {}).get("classes")
        if not base or not got:
            continue        # pre-profile baseline doc: nothing to blame
        top = top_regressing_class(base, got)
        if top is None:
            out.append(f"{wl}: no instrumentation class charged more ops "
                       "than baseline (timing-side regression)")
        else:
            klass, delta = top
            out.append(f"{wl}: top regressing bucket {klass!r} "
                       f"(+{delta:.0f} virtual ops vs baseline, "
                       f"{base.get(klass, 0.0):.0f} -> "
                       f"{got.get(klass, 0.0):.0f})")
    return out


#: ``--baseline`` exit code for an unusable baseline (missing file, bad
#: JSON, no entry for a gated workload) — distinct from 1 (a real perf
#: regression) so CI failures are attributable at a glance
EXIT_BASELINE_UNUSABLE = 3

#: absolute grace (ms) added to serve p95 ceilings.  Endpoint p95s are
#: single-digit milliseconds over a handful of samples, and the analysis
#: threads contend on the GIL, so one scheduler hiccup triples a tail
#: latency; the regressions this gate exists to catch (a lost cache, an
#: accidentally quadratic ingest path) are 10-100x, far past any grace
SERVE_P95_GRACE_MS = 5.0


def _check_serve(fresh_s: Dict, base_s: Dict, tolerance: float,
                 lines: List[str], breached: List[str]) -> None:
    """Gate the ingestion-server block: throughput floor + p95 ceilings.

    Throughput is higher-better (same floor rule as the speedups);
    endpoint p95 latency is lower-better, so the gate inverts: fresh must
    stay under ``(baseline + grace) / (1 - tolerance)``.
    """
    base_tp = base_s.get("throughput_chunks_per_s")
    if base_tp:
        got = fresh_s.get("throughput_chunks_per_s", 0.0)
        floor = base_tp * (1.0 - tolerance)
        verdict = "ok" if got >= floor else "REGRESSION"
        if got < floor:
            breached.append("serve/throughput")
        lines.append(f"{'serve':<10} {'throughput':<11} "
                     f"baseline {base_tp:.0f} chunks/s  fresh {got:.0f}  "
                     f"floor {floor:.0f}  {verdict}")
    for ep, entry in sorted(base_s.get("endpoints", {}).items()):
        base_p95 = entry.get("p95_ms")
        if base_p95 is None:
            continue
        got = fresh_s.get("endpoints", {}).get(ep, {}).get("p95_ms")
        ceiling = (base_p95 + SERVE_P95_GRACE_MS) / (1.0 - tolerance)
        # a fresh doc that lost the measurement gates at infinity —
        # dropping an endpoint from the bench is itself a regression
        got_v = float("inf") if got is None else got
        verdict = "ok" if got_v <= ceiling else "REGRESSION"
        if got_v > ceiling:
            breached.append(f"serve/{ep}.p95")
        lines.append(f"{'serve':<10} {ep + '.p95':<11} "
                     f"baseline {base_p95:.2f}ms  fresh "
                     f"{'lost' if got is None else f'{got:.2f}ms'}  "
                     f"ceiling {ceiling:.2f}ms  {verdict}")


def _blame_serve(fresh_s: Optional[Dict], base_s: Optional[Dict],
                 breached: List[str]) -> List[str]:
    """Name the job phase behind a serve breach (the blame line).

    The endpoint is already in the breach item; the phase comes from the
    per-job ``job_phases`` p95s both docs record — the phase whose p95
    grew most is the prime suspect (queue-wait growth means shard
    starvation, build growth means the graph cache stopped hitting).
    """
    if not any(item.startswith("serve/") for item in breached):
        return []
    if not fresh_s or not base_s:
        return []
    worst: Optional[Tuple[str, float, float, float]] = None
    for phase, entry in base_s.get("job_phases", {}).items():
        base_p95 = entry.get("p95_ms")
        got_p95 = fresh_s.get("job_phases", {}).get(phase, {}).get("p95_ms")
        if base_p95 is None or got_p95 is None:
            continue
        delta = got_p95 - base_p95
        if worst is None or delta > worst[1]:
            worst = (phase, delta, base_p95, got_p95)
    if worst is None or worst[1] <= 0:
        return ["serve: no job phase slower than baseline "
                "(HTTP/queueing-side regression)"]
    phase, delta, base_p95, got_p95 = worst
    return [f"serve: top regressing phase {phase!r} "
            f"(p95 {base_p95:.2f}ms -> {got_p95:.2f}ms, "
            f"+{delta:.2f}ms vs baseline)"]


def compare_to_baseline(fresh: Dict, baseline: Dict,
                        tolerance: float) -> Tuple[bool, List[str]]:
    """The CI regression gate: fresh vs committed speedups.

    Only workloads present in both documents are compared (the quick CI
    preset skips LULESH).  Three checks per workload, all at the same
    ``tolerance`` (a fraction) below the committed baseline:

    * ``combined_speedup`` — the original record+analyze gate;
    * ``analyze.speedup`` — the analyze-side target (the vectorized kernel
      must keep heat/lulesh at their ≥2× baseline);
    * ``record_sync.speedup`` — the two-phase first pass must stay cheap
      (sync-only recording ≥3× faster than full recording on the big
      workloads, per the committed baseline).

    When both documents carry a ``serve`` block (the ingestion-server
    load bench, ``python -m repro.bench.serve``), its chunk throughput
    and per-endpoint p95 latencies are gated at the same tolerance —
    throughput as a floor, latency as an inverted ceiling.

    Returns ``(ok, report_lines)``.  On failure a line names every
    ``workload/phase`` pair that breached tolerance, followed by blame
    lines (instrumentation class for workloads, job phase for serve).
    """
    lines: List[str] = []
    breached: List[str] = []
    common = [wl for wl in baseline.get("workloads", {})
              if wl in fresh.get("workloads", {})]
    serve_comparable = bool(baseline.get("serve")) and bool(fresh.get("serve"))
    if not common and not serve_comparable:
        return False, ["no common workloads between fresh run and baseline"]

    def check(wl: str, phase: str, base: float, got: float) -> None:
        floor = base * (1.0 - tolerance)
        verdict = "ok" if got >= floor else "REGRESSION"
        if got < floor:
            breached.append(f"{wl}/{phase}")
        lines.append(f"{wl:<10} {phase:<11} baseline {base:.2f}x  "
                     f"fresh {got:.2f}x  floor {floor:.2f}x  {verdict}")

    for wl in common:
        check(wl, "combined", baseline["workloads"][wl]["combined_speedup"],
              fresh["workloads"][wl]["combined_speedup"])
        for phase, key in (("analyze", "analyze"),
                           ("record_sync", "record_sync")):
            base = baseline["workloads"][wl].get(key, {}).get("speedup")
            if base is None:
                continue
            # a fresh doc missing the phase gates at 0 — losing the
            # measurement entirely is itself a regression
            check(wl, phase, base,
                  fresh["workloads"][wl].get(key, {}).get("speedup", 0.0))
    if serve_comparable:
        _check_serve(fresh["serve"], baseline["serve"], tolerance,
                     lines, breached)
    if breached:
        lines.append("breached tolerance: " + ", ".join(breached))
        lines.extend(_blame_buckets(fresh, baseline, breached))
        lines.extend(_blame_serve(fresh.get("serve"), baseline.get("serve"),
                                  breached))
    return not breached, lines


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", default="BENCH_perf.json",
                    help="output path (default: BENCH_perf.json)")
    ap.add_argument("--max-events", type=int, default=250_000)
    ap.add_argument("--repeats", type=int, default=3,
                    help="timing repeats per phase, min 1 (default: 3)")
    ap.add_argument("--skip-lulesh", action="store_true",
                    help="only run the quick synthetic workloads")
    ap.add_argument("--baseline", metavar="PATH", default=None,
                    help="committed BENCH_perf.json to gate against")
    ap.add_argument("--tolerance", type=float, default=0.4,
                    help="allowed fractional speedup drop vs the baseline "
                         "(default: 0.4)")
    ap.add_argument("--profiles-dir", metavar="DIR", default=None,
                    help="write each workload's full taskgrind-profile/1 "
                         "document here (CI artifact upload)")
    args = ap.parse_args(argv)
    workloads = ("fib", "heat") if args.skip_lulesh else \
        ("fib", "heat", "lulesh")
    results = run_perf(workloads=workloads, max_events=args.max_events,
                       repeats=max(1, args.repeats),
                       profiles_dir=args.profiles_dir)
    print(render(results))
    with open(args.json, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.json}")
    if args.profiles_dir is not None:
        print(f"wrote per-workload profiles to {args.profiles_dir}/")
    if args.baseline is not None:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except OSError as exc:
            print(f"cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            print("regenerate it with: python -m repro.bench.perf "
                  f"--json {args.baseline}", file=sys.stderr)
            return EXIT_BASELINE_UNUSABLE
        except json.JSONDecodeError as exc:
            print(f"baseline {args.baseline} is not valid JSON: {exc}",
                  file=sys.stderr)
            return EXIT_BASELINE_UNUSABLE
        missing = [wl for wl in workloads
                   if wl not in baseline.get("workloads", {})]
        if missing:
            print(f"baseline {args.baseline} has no entry for "
                  f"workload(s): {', '.join(missing)} — regenerate the "
                  "baseline to cover them", file=sys.stderr)
            return EXIT_BASELINE_UNUSABLE
        ok, lines = compare_to_baseline(results, baseline, args.tolerance)
        print(f"\nregression gate vs {args.baseline} "
              f"(tolerance {args.tolerance:.0%}):")
        for line in lines:
            print(f"  {line}")
        if not ok:
            print("perf regression gate FAILED", file=sys.stderr)
            return 1
        print("perf regression gate passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
