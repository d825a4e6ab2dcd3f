#!/usr/bin/env python3
"""End-to-end and per-layer timing of real Taskgrind runs.

Run from the repository root:

    python3 perfbench/run.py --workload fib --seed 1 --seconds 25 --trace 0

Workloads (each one real run, timed from start to final report):

* ``fib``    -- ``repro run``-style launch of task-recursive fib(17) under
  Taskgrind on 4 simulated threads: 4,946 segments, the smallest fib whose
  graph is past both batched HB tiers.  The order-maintenance labels
  overflow int64 and the segment count exceeds ``npkernel.MATRIX_MAX_SEGS``
  (4,096), so every HB query is a per-pair DP query.  Thousands of stack-local candidates are dropped by
  suppression; no races.
* ``lulesh`` -- the paper's Table II racy cell: LULESH ``-s 16 -tel 4
  -tnl 4 -p -i 4`` on 1 thread with the kinematics halo dependence
  removed.  245 segments of dependent tasks: inexact happens-before,
  answered in one batch by the dense reachability matrix; race reports.
* ``trace``  -- offline analysis (``repro.core.offline``) of a saved trace
  of racy LULESH ``-s 24 -tel 16 -tnl 16 -i 4``: trace decoding, Algorithm
  1, suppression and reporting without the guest.
* ``serve``  -- one client round-trip through the analysis service: upload
  the saved Table II LULESH trace chunk by chunk, request an analysis,
  poll the job, fetch the report.  Each round-trip goes to a fresh
  in-process server with a ``--state-dir`` journal (WAL fsync ``always``),
  so caches are cold and the full ingest, graph build and analysis run.

Inputs.  ``--seed`` picks the scheduler seed of every run.  Only fib runs
on more than one simulated thread, so only fib's schedule (task stealing,
segment shapes) changes with the seed; the LULESH runs and traces are the
same for every seed.

Checks.  fib's value and zero reports; LULESH's mesh against an
uninstrumented run and the same reports on every repeat; offline reports
byte-identical to the online reports of the run that recorded the trace;
served reports byte-identical to ``repro.core.offline`` on the same file.

Timing.  On a shared machine the core's speed drifts by 2x within seconds,
for the tool and for any other Python code alike.  So a fixed pure-Python
reference workload is timed right before and right after every measured
interval, and each time is reported *at reference speed*: multiplied by
``REF_MS / reference time``.  ``REF_MS`` is the reference workload's
typical time on an idle core of a 2.1 GHz Xeon, so on such a core the
reported times are plain wall times.  The correction is partial: on a
2x slower core the reference slows somewhat more than the tool, and the
scaled times read about 10% low.  The unscaled median goes to stderr.

Metrics are medians over the runs made in ``--seconds``.  ``--trace 0``
prints the end-to-end metrics: ``run_ms`` (one run, start to final report)
and ``setup_s``, the median over fresh ``--setup-only`` interpreters of the
time to import the tool and prepare the workload's input, timed inside
the child (interpreter start-up excluded).  Per workload, set-up is:

* fib: importing the tool;
* lulesh: importing, plus the uninstrumented LULESH run that gives the
  reference mesh;
* trace: importing, plus recording the ``-s 24`` trace under Taskgrind and
  saving it;
* serve: importing, plus recording and saving the ``-s 16`` trace and
  analysing it offline for the expected report.

``--trace 1`` prints the per-layer metrics, read from the program's own
phase timers and counters around each run; a breakdown table goes to
stderr.  A layer a workload does not pass through reads 0.  The last
stdout line is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
FIB_N = 17
FIB_THREADS = 4
#: the paper's Table II racy cell, and a larger one for the saved trace
LULESH_TABLE2 = dict(s=16, tel=4, tnl=4, iterations=4, progress=True,
                     racy=True)
LULESH_TRACE = dict(s=24, tel=16, tnl=16, iterations=4, progress=True,
                    racy=True)

#: the reference workload's typical time (ms) on an idle 2.1 GHz Xeon core
REF_MS = 5.0

#: per-layer metric -> (unit, description).  The time layers in TOP_LEVEL
#: are disjoint, so they and unattributed_ms sum to the run time;
#: candidates and hb_filter are parts of analysis.
LAYERS = {
    "record_ms": ("ms", "guest run under Taskgrind (fib, lulesh)"),
    "upload_ms": ("ms", "server-side chunk ingest: validation, hashing, "
                        "journal, chunk store (serve)"),
    "queue_wait_ms": ("ms", "analysis job waiting for a worker (serve)"),
    "load_ms": ("ms", "saved trace to segment graph (trace, serve)"),
    "analysis_ms": ("ms", "Algorithm 1: HB index prep, candidates, HB filter"),
    "candidates_ms": ("ms", "candidate pairs from shared addresses"),
    "hb_filter_ms": ("ms", "HB queries and conflict intersection per pair "
                           "(serve: summed over analysis worker threads)"),
    "suppress_ms": ("ms", "Section IV suppression of surviving candidates"),
    "report_ms": ("ms", "report building"),
    "unattributed_ms": ("ms", "run time outside the phases above"),
    "segments": ("count", "segments in the graph"),
    "recorded_accesses": ("count", "accesses recorded by the tool"),
    "context_switches": ("count", "simulated scheduler handoffs"),
    "candidate_pairs": ("count", "segment pairs sharing an address"),
    "hb_label_queries": ("count", "HB queries answered by batched labels"),
    "hb_dp_queries": ("count", "HB queries answered by DP reachability"),
    "suppressed_pairs": ("count", "candidates fully dropped by suppression"),
}
TOP_LEVEL = ("record_ms", "upload_ms", "queue_wait_ms", "load_ms",
             "analysis_ms", "suppress_ms", "report_ms")
#: time layer -> the program's phase timer for it, on every path
ANALYSIS_PHASES = {"analysis_ms": "analysis",
                   "candidates_ms": "analysis.candidates",
                   "hb_filter_ms": "analysis.pairs",
                   "suppress_ms": "suppress",
                   "report_ms": "report"}


class CheckFailed(Exception):
    """A run's output differs from what the workload must produce."""


# ---------------------------------------------------------------------------
# reference speed
# ---------------------------------------------------------------------------

class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _reference_work() -> int:
    """Fixed interpreter work: object creation, dict/list churn, a sort."""
    table: Dict[int, list] = {}
    items = []
    acc = 0
    for i in range(6000):
        item = _Item(i, i * 7 % 13)
        items.append(item)
        bucket = table.get((item.a ^ item.b) & 511)
        if bucket is None:
            bucket = table[(item.a ^ item.b) & 511] = []
        bucket.append(item)
        acc += len(bucket) + item.b
    items.sort(key=lambda it: (it.b, -it.a))
    return acc + items[0].a


def _reference_ms() -> float:
    t0 = time.perf_counter()
    _reference_work()
    return (time.perf_counter() - t0) * 1e3


class _SpeedProbe:
    """Scale factor to reference speed for the interval it brackets."""

    def __enter__(self) -> "_SpeedProbe":
        self._before = _reference_ms()
        return self

    def __exit__(self, *exc) -> None:
        self.scale = 2 * REF_MS / (self._before + _reference_ms())


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def _phase_s(phases: Dict[str, dict], name: str) -> float:
    return phases.get(name, {}).get("wall_s", 0.0)


def _counts(graph: dict, counters: Dict[str, float], recorded: int = 0,
            switches: int = 0) -> Dict[str, float]:
    return {
        "segments": graph["segments"],
        "recorded_accesses": recorded,
        "context_switches": switches,
        "candidate_pairs": counters.get("analysis.candidate_pairs", 0),
        "hb_label_queries": graph["queries"]["label"],
        "hb_dp_queries": graph["queries"]["dp"],
        "suppressed_pairs": counters.get("suppress.fully_suppressed_pairs",
                                         0),
    }


class Sample:
    """One timed run: wall time, per-layer seconds and counters.

    ``phases`` is the program's phase document for the run; ``own_s``
    holds the time layers only this workload's path has, in seconds.
    """

    def __init__(self, wall_s: float, phases: Dict[str, dict],
                 own_s: Dict[str, float], counts: Dict[str, float]) -> None:
        self.wall_s = wall_s
        self.times = {key: 0.0 for key in LAYERS if key.endswith("_ms")}
        for key, name in ANALYSIS_PHASES.items():
            self.times[key] = _phase_s(phases, name)
        self.times.update(own_s)
        self.counts = counts
        self.scale = 1.0

    def run_ms(self) -> float:
        return self.wall_s * 1e3 * self.scale

    def layers(self) -> Dict[str, float]:
        out = {key: s * 1e3 * self.scale for key, s in self.times.items()}
        out["unattributed_ms"] = self.run_ms() - sum(out[key]
                                                     for key in TOP_LEVEL)
        out.update(self.counts)
        return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _program(name: str, entry: Callable, source_file: str, racy: bool):
    from repro.bench.programs import BenchProgram
    return BenchProgram(name=name, racy=racy, entry=entry,
                        description="perfbench " + name,
                        source_file=source_file,
                        features=frozenset({"task"}))


def _online_sample(program, nthreads: int, seed: int):
    """One ``repro run``-style launch under Taskgrind, timed."""
    from repro.bench.runner import run_benchmark
    t0 = time.perf_counter()
    result = run_benchmark(program, "taskgrind", nthreads=nthreads,
                           seed=seed, keep_machine=True)
    wall = time.perf_counter() - t0
    stats = result.stats
    registry = stats["registry"]
    phases = registry["phases"]
    sample = Sample(wall, phases, {"record_ms": _phase_s(phases, "record")},
                    _counts(stats["graph"], registry["counters"],
                            stats["record"]["recorded_accesses"],
                            result.machine.scheduler.switches))
    return sample, result


def _report_texts(reports) -> List[str]:
    from repro.core.reports import format_report
    return [format_report(r) for r in reports]


def _lulesh_program(config: dict, box: dict):
    from repro.workloads.lulesh import LuleshConfig, run_lulesh
    cfg = LuleshConfig(**config)
    return _program("lulesh",
                    lambda env: box.__setitem__("mesh", run_lulesh(env, cfg)),
                    "lulesh.cc", racy=True)


def _record_lulesh_trace(config: dict, seed: int, path: str) -> List[str]:
    """Record racy LULESH under Taskgrind to ``path``; returns its reports."""
    from repro.core.trace import save_trace
    _, result = _online_sample(_lulesh_program(config, {}), 1, seed)
    texts = _report_texts(result.reports)
    if not texts:
        raise CheckFailed("recorded LULESH run produced no race report")
    save_trace(result.tool_obj, result.machine, path)
    return texts


class FibWorkload:
    def __init__(self, rng: random.Random, workdir: Path) -> None:
        from repro.workloads.synthetic import fib_reference, omp_fib
        self.rng = rng
        self.expected = fib_reference(FIB_N)
        self.box: dict = {}
        box = self.box
        self.program = _program(
            "fib", lambda env: box.__setitem__("value", omp_fib(env, FIB_N)),
            "fib.c", racy=False)

    def run_once(self) -> Sample:
        self.box.clear()
        sample, result = _online_sample(self.program, FIB_THREADS,
                                        self.rng.randrange(1 << 31))
        if self.box.get("value") != self.expected:
            raise CheckFailed(f"fib({FIB_N}) = {self.box.get('value')}, "
                              f"expected {self.expected}")
        if result.report_count:
            raise CheckFailed(f"race-free fib reported "
                              f"{result.report_count} race(s)")
        return sample


def _lulesh_fields(mesh) -> Dict[str, bytes]:
    return {name: f.data.tobytes() for name, f in mesh.fields.items()}


class LuleshWorkload:
    def __init__(self, rng: random.Random, workdir: Path) -> None:
        from repro.bench.runner import run_benchmark
        self.rng = rng
        self.box: dict = {}
        self.program = _lulesh_program(LULESH_TABLE2, self.box)
        # the uninstrumented guest computes the reference mesh
        run_benchmark(self.program, "none", nthreads=1, seed=0)
        self.reference = _lulesh_fields(self.box.pop("mesh"))
        self.expected_reports: Optional[List[str]] = None

    def run_once(self) -> Sample:
        self.box.clear()
        sample, result = _online_sample(self.program, 1,
                                        self.rng.randrange(1 << 31))
        if _lulesh_fields(self.box["mesh"]) != self.reference:
            raise CheckFailed("instrumented LULESH mesh differs from the "
                              "uninstrumented run")
        texts = _report_texts(result.reports)
        if not texts:
            raise CheckFailed("racy LULESH produced no race report")
        if self.expected_reports is None:
            self.expected_reports = texts
        elif texts != self.expected_reports:
            raise CheckFailed("racy LULESH reports changed between runs")
        return sample


class TraceWorkload:
    def __init__(self, rng: random.Random, workdir: Path) -> None:
        self.path = str(workdir / "lulesh.trace")
        self.expected = _record_lulesh_trace(
            LULESH_TRACE, rng.randrange(1 << 31), self.path)

    def run_once(self) -> Sample:
        from repro.core.trace import analyze_trace_with_stats
        from repro.obs.metrics import get_registry
        reg = get_registry()
        mark = reg.mark()
        t0 = time.perf_counter()
        reports, stats = analyze_trace_with_stats(self.path)
        wall = time.perf_counter() - t0
        counters = reg.delta_since(mark)["counters"]
        if not stats["coverage"]["complete"]:
            raise CheckFailed("saved trace did not load completely")
        if _report_texts(reports) != self.expected:
            raise CheckFailed("offline reports differ from the online run")
        phases = stats["phases"]
        return Sample(wall, phases,
                      {"load_ms": _phase_s(phases, "offline.load")},
                      _counts(stats["graph"], counters))


class ServeWorkload:
    def __init__(self, rng: random.Random, workdir: Path) -> None:
        from repro.core.reports import report_to_dict
        from repro.core.trace import analyze_trace
        from repro.serve.client import read_trace_lines
        self.workdir = workdir
        path = str(workdir / "lulesh.trace")
        _record_lulesh_trace(LULESH_TABLE2, rng.randrange(1 << 31), path)
        self.lines = read_trace_lines(path)
        self.expected = json.dumps(
            [report_to_dict(r) for r in analyze_trace(path)], sort_keys=True)
        self.rounds = 0

    def run_once(self) -> Sample:
        from repro.obs.metrics import get_registry
        from repro.serve.app import ServeConfig
        from repro.serve.client import ServeClient
        from repro.serve.server import ServerThread
        self.rounds += 1
        state_dir = self.workdir / f"state-{self.rounds}"
        server = ServerThread(ServeConfig(state_dir=str(state_dir))).start()
        try:
            reg = get_registry()
            mark = reg.mark()
            with ServeClient(server.base_url) as client:
                t0 = time.perf_counter()
                trace_id, _ack = client.upload_trace(self.lines)
                job = client.wait(client.analyze(trace_id))
                status, report = client.report(job["job_id"])
                wall = time.perf_counter() - t0
            delta = reg.delta_since(mark)
        finally:
            server.stop()
            shutil.rmtree(state_dir, ignore_errors=True)
        if job["state"] != "done" or status != 200:
            raise CheckFailed(f"analysis job ended {job['state']}, report "
                              f"fetch returned {status}")
        if json.dumps(report.get("errors"), sort_keys=True) != self.expected:
            raise CheckFailed("served report differs from offline analysis "
                              "of the same trace")
        phases = delta["phases"]
        return Sample(wall, phases, {
            "upload_ms": _phase_s(phases, "serve.ingest"),
            "queue_wait_ms": job["queue_wait_s"],
            "load_ms": _phase_s(phases, "serve.build"),
        }, _counts(report["graph"], delta["counters"]))


WORKLOADS = {"fib": FibWorkload, "lulesh": LuleshWorkload,
             "trace": TraceWorkload, "serve": ServeWorkload}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _time_setups(args) -> float:
    """Median set-up time, at reference speed, of fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--workload", args.workload,
                                "--seed", str(args.seed), "--setup-only"],
                               check=True, timeout=120, capture_output=True,
                               text=True)
        times.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def _measure(workload, seconds: float):
    """Run until ``seconds`` have passed; returns (samples, failures)."""
    samples: List[Sample] = []
    failures: List[str] = []

    def attempt() -> Optional[Sample]:
        gc.collect()
        try:
            with _SpeedProbe() as probe:
                sample = workload.run_once()
        except CheckFailed as exc:
            failures.append(str(exc))
            return None
        sample.scale = probe.scale
        return sample

    attempt()                           # warm-up: lazy imports, caches
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) + len(failures) < 3:
        sample = attempt()
        if sample is not None:
            samples.append(sample)
    return samples, failures


def _print_breakdown(layers: Dict[str, float]) -> None:
    for key, (unit, what) in LAYERS.items():
        print(f"  {key:<18} {layers[key]:>12.2f} {unit:<5}  {what}",
              file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="prepare the workload's input, print its set-up "
                         "time as JSON and exit")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no Taskgrind sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with _SpeedProbe() as probe:
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](random.Random(args.seed),
                                                workdir)
            setup_wall = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_wall * probe.scale}))
            return 0
        samples, failures = _measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in failures[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    if not samples:
        print("error: no run passed its checks", file=sys.stderr)
        return 1

    run_ms = statistics.median(s.run_ms() for s in samples)
    wall_ms = statistics.median(s.wall_s for s in samples) * 1e3
    print(f"{args.workload}: median of {len(samples)} runs: {run_ms:.2f} ms "
          f"at reference speed, {wall_ms:.2f} ms wall", file=sys.stderr)
    if args.trace:
        per_run = [s.layers() for s in samples]
        layers = {key: statistics.median(r[key] for r in per_run)
                  for key in LAYERS}
        _print_breakdown(layers)
        metrics = {key: {"value": layers[key], "unit": LAYERS[key][0]}
                   for key in LAYERS}
    else:
        setup_s = _time_setups(args)
        print(f"  setup {setup_s:.3f} s at reference speed", file=sys.stderr)
        metrics = {"run_ms": {"value": run_ms, "unit": "ms"},
                   "setup_s": {"value": setup_s, "unit": "s"}}
    print(json.dumps({"correct": not failures,
                      "attempted": len(samples) + len(failures),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
