"""Load generator for the trace-ingestion server (CI-gated).

Replays recorded traces — the fuzz corpus plus the synthetic workloads —
as ``--clients`` concurrent clients against an **in-process** server
(real sockets, real HTTP, no subprocess), measuring what the perf gate
cares about:

* per-endpoint p50/p95 latency (``create_trace`` / ``upload_chunk`` /
  ``analyze`` / ``job_status`` / ``report``), exact percentiles over the
  recorded samples, in milliseconds;
* chunk-ingest throughput (accepted chunks per wall second);
* per-job phase p50/p95 (queue-wait/build/analyze/report) — the blame
  axis when the gate trips.

The block lands under the top-level ``"serve"`` key of the perf document
(``--merge-into BENCH_perf.json``) and :func:`_check_serve` gates a fresh
block against it (``--baseline``): chunk throughput as a floor, endpoint
p95 latency as an inverted ceiling, both at ``--tolerance``.

``--faults`` switches to the chaos campaign the nightly ``serve-chaos``
job runs: every session is re-driven under worker-hang, trace-corrupt
and save-crash plans from :mod:`repro.faults`, and the bench asserts the
service's degradation contract — every job terminates (no hangs), every
degraded job still serves a well-formed partial report with
``unchecked_pairs`` accounting, and no degraded report invents a race
the clean run did not have.

``--kill-chaos`` runs the durability campaign (nightly
``serve-kill-chaos`` matrix): each trace is uploaded into a
``--state-dir`` server that is killed mid-upload (under the
``wal-torn-write`` / ``kill-server`` plans, filterable with
``--kill-kinds``) and killed again mid-analysis; each kill is followed
by a restart against the same state dir, asserting zero lost sealed
uploads, resume from the exact journaled seq, exactly-once job
re-execution, and byte-identical reports.

``--overload`` hammers a deliberately tiny job queue and asserts
overload turns into typed 429s with ``Retry-After`` (which the backoff
client rides out to eventual success) — never untyped drops.

Exit codes: 0 ok; 1 gate/verification/chaos failure; 3 unusable
baseline or ``--merge-into`` target (``EXIT_BASELINE_UNUSABLE``, shared
with ``repro.bench.perf``).
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.perf import EXIT_BASELINE_UNUSABLE, load_baseline
from repro.core.reports import report_to_dict
from repro.core.trace import analyze_trace, save_trace
from repro.errors import GuestCrash, OutOfMemory, ReproError, SimDeadlock
from repro.faults.plan import ANALYSIS_KINDS, FaultPlan, builtin_plan
from repro.faults.inject import inject_plan
from repro.obs.metrics import get_registry
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient, read_trace_lines
from repro.serve.server import ServerThread
from repro.serve.wal import read_wal

SCHEMA = "taskgrind-serve-bench/1"

#: the chaos matrix: (builtin plan name, what it attacks)
CHAOS_PLANS = (
    ("worker-hang@0", "analysis worker wedged on its first chunk"),
    ("trace-corrupt@1", "bit-rot in an uploaded chunk payload"),
    ("save-crash@1", "ingest worker dying mid-upload"),
)

#: the kill-chaos matrix: (builtin plan name, how the server dies).
#: Both fire at WAL record 2 — the first ``chunk-accepted`` — so the
#: journal provably loses in-flight work that recovery must not invent.
KILL_PLANS = (
    ("wal-torn-write@2", "journal write torn mid-upload, then SIGKILL"),
    ("kill-server@2", "SIGKILL lands inside the journal append itself"),
)


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


# ---------------------------------------------------------------------------
# trace materialization (corpus + synthetics → taskgrind-trace/2 files)
# ---------------------------------------------------------------------------

def record_program_trace(name: str, path: str, *, seed: int = 0,
                         nthreads: int = 4) -> None:
    """Record one registered bench program's trace to ``path``."""
    from repro.bench.runner import _find_program, run_benchmark
    program = _find_program(name)
    if program is None:
        raise ValueError(f"unknown bench program {name!r}")
    result = run_benchmark(program, "taskgrind", nthreads=nthreads,
                           seed=seed, keep_machine=True)
    if result.tool_obj is None or result.machine is None:
        raise RuntimeError(f"{name}: run produced no machine/tool "
                           f"({result.verdict})")
    save_trace(result.tool_obj, result.machine, path)


def record_corpus_trace(corpus_path: str, out_path: str,
                        *, seed: int = 0) -> bool:
    """Record one fuzz-corpus reproducer's trace; False if the program
    crashed or deadlocked under this seed (nothing to upload)."""
    from repro.fuzz.executors import (_exec_openmp, _exec_qthreads,
                                      fuzz_options)
    from repro.fuzz.shrink import load_reproducer
    program, _expect, options, _note = load_reproducer(corpus_path)
    opts = fuzz_options(**options)
    exec_fn = _exec_qthreads if program.family == "feb" else _exec_openmp
    machine, tool, _amap, entry = exec_fn(program, seed, opts)
    try:
        machine.run(entry)
    except (SimDeadlock, GuestCrash, OutOfMemory):
        return False
    tool.finalize()
    save_trace(tool, machine, out_path)
    return True


def materialize_traces(workdir: str, *, corpus_dir: Optional[str],
                       max_traces: int, programs: Tuple[str, ...] = (
                           "heat-racy", "fib")) -> List[Tuple[str, str]]:
    """Build the trace set the clients replay: ``[(name, path), ...]``.

    Synthetic programs first (heat-racy contributes real race reports so
    verification is not vacuous), then fuzz-corpus reproducers in sorted
    order up to ``max_traces`` total.
    """
    out: List[Tuple[str, str]] = []
    for name in programs:
        path = os.path.join(workdir, f"{name}.trace.json")
        record_program_trace(name, path)
        out.append((name, path))
    if corpus_dir and os.path.isdir(corpus_dir):
        for entry in sorted(os.listdir(corpus_dir)):
            if len(out) >= max_traces:
                break
            if not entry.endswith(".json"):
                continue
            src = os.path.join(corpus_dir, entry)
            dst = os.path.join(workdir, f"corpus-{entry}.trace.json")
            try:
                if record_corpus_trace(src, dst):
                    out.append((f"corpus:{entry}", dst))
            except (ValueError, KeyError, OSError):
                continue        # not a reproducer document: skip
    return out


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def percentile(samples: List[float], q: float) -> float:
    """Exact nearest-rank percentile over the sample list (q in [0,1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _summarize_ms(samples: List[float]) -> dict:
    return {"count": len(samples),
            "p50_ms": round(percentile(samples, 0.50), 4),
            "p95_ms": round(percentile(samples, 0.95), 4),
            "mean_ms": round(sum(samples) / len(samples), 4)
            if samples else 0.0}


class _Recorder:
    """Thread-safe latency/throughput books shared by the client threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.endpoint_ms: Dict[str, List[float]] = {}
        self.phase_ms: Dict[str, List[float]] = {}
        self.chunks = 0
        self.sessions = 0
        self.mismatches: List[str] = []
        self.failures: List[str] = []

    def lat(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            self.endpoint_ms.setdefault(endpoint, []).append(seconds * 1e3)

    def phases(self, status_doc: dict) -> None:
        with self._lock:
            self.phase_ms.setdefault("queue-wait", []).append(
                status_doc.get("queue_wait_s", 0.0) * 1e3)
            for name, dur in status_doc.get("phases", {}).items():
                self.phase_ms.setdefault(name, []).append(dur * 1e3)


# ---------------------------------------------------------------------------
# one client session: upload → analyze → poll → report
# ---------------------------------------------------------------------------

def _timed(rec: _Recorder, endpoint: str, fn):
    t0 = time.perf_counter()
    out = fn()
    rec.lat(endpoint, time.perf_counter() - t0)
    return out


def run_session(client: ServeClient, lines: List[bytes], rec: _Recorder,
                *, expected: Optional[str], timeout_s: float = 120.0,
                analyze_options: Optional[dict] = None) -> dict:
    """Drive one full trace lifecycle; returns the final report doc."""
    trace_id = _timed(rec, "create_trace", client.create_trace)
    for seq, line in enumerate(lines):
        status, ack = _timed(rec, "upload_chunk",
                             lambda: client.upload_chunk(trace_id, seq, line))
        if status != 200:
            raise RuntimeError(f"chunk {seq} rejected: {status} {ack}")
        with rec._lock:
            rec.chunks += 1
    job_id = _timed(rec, "analyze",
                    lambda: client.analyze(trace_id,
                                           **(analyze_options or {})))
    deadline = time.monotonic() + timeout_s
    while True:
        status_doc = _timed(rec, "job_status", lambda: client.job(job_id))
        if status_doc["state"] in ("done", "degraded", "failed"):
            break
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} hung ({status_doc['state']})")
        time.sleep(0.002)
    rec.phases(status_doc)
    http_status, report = _timed(rec, "report",
                                 lambda: client.report(job_id))
    if http_status != 200:
        raise RuntimeError(f"report fetch failed: {http_status} {report}")
    if expected is not None:
        got = json.dumps(report.get("errors"), sort_keys=True)
        if got != expected:
            raise AssertionError("server report diverged from offline "
                                 "analysis of the same trace")
    with rec._lock:
        rec.sessions += 1
    return report


# ---------------------------------------------------------------------------
# the load run
# ---------------------------------------------------------------------------

def run_load(traces: List[Tuple[str, str]], *, clients: int, rounds: int,
             shards: int, verify: bool) -> dict:
    """N concurrent clients replaying the trace set ``rounds`` times."""
    trace_lines = {name: read_trace_lines(path) for name, path in traces}
    expected: Dict[str, Optional[str]] = {name: None for name, _ in traces}
    if verify:
        # ground truth: the offline pipeline on the file
        for name, path in traces:
            reports = analyze_trace(path)
            expected[name] = json.dumps(
                [report_to_dict(r) for r in reports], sort_keys=True)

    rec = _Recorder()
    work: "queue.Queue[Optional[str]]" = queue.Queue()
    for _round in range(rounds):
        for name, _path in traces:
            work.put(name)
    for _ in range(clients):
        work.put(None)

    config = ServeConfig(shards=shards)
    with ServerThread(config) as srv:
        def client_loop() -> None:
            with ServeClient(srv.base_url) as client:
                while True:
                    name = work.get()
                    if name is None:
                        return
                    try:
                        run_session(client, trace_lines[name], rec,
                                    expected=expected[name])
                    except AssertionError as exc:
                        with rec._lock:
                            rec.mismatches.append(f"{name}: {exc}")
                    except (ReproError, RuntimeError, TimeoutError,
                            ConnectionError) as exc:
                        with rec._lock:
                            rec.failures.append(f"{name}: {exc}")

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client_loop,
                                    name=f"serve-client-{i}")
                   for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
    reg = get_registry()
    return {
        "clients": clients,
        "rounds": rounds,
        "shards": shards,
        "traces": len(traces),
        "sessions": rec.sessions,
        "chunks_uploaded": rec.chunks,
        "elapsed_s": round(elapsed, 4),
        "throughput_chunks_per_s": round(rec.chunks / elapsed, 2)
        if elapsed > 0 else 0.0,
        "endpoints": {name: _summarize_ms(samples)
                      for name, samples in sorted(rec.endpoint_ms.items())},
        "job_phases": {name: _summarize_ms(samples)
                       for name, samples in sorted(rec.phase_ms.items())},
        "cache": {
            "result_hits": reg.counter("serve.cache.result.hits").value,
        },
        "verified": verify and not rec.mismatches,
        "mismatches": rec.mismatches,
        "failures": rec.failures,
    }


# ---------------------------------------------------------------------------
# the gate (--baseline)
# ---------------------------------------------------------------------------

#: absolute grace (ms) added to serve p95 ceilings.  Endpoint p95s are
#: single-digit milliseconds over a handful of samples, and the analysis
#: threads contend on the GIL, so one scheduler hiccup triples a tail
#: latency; the regressions this gate exists to catch (a lost cache, an
#: accidentally quadratic ingest path) are 10-100x, far past any grace
SERVE_P95_GRACE_MS = 5.0


def _check_serve(fresh_s: Dict, base_s: Dict, tolerance: float
                 ) -> Tuple[bool, List[str]]:
    """Gate a fresh serve block: throughput floor + p95 ceilings.

    Throughput is higher-better: fresh must stay at or above
    ``baseline × (1 - tolerance)``.  Endpoint p95 latency is lower-better,
    so the gate inverts: fresh must stay under
    ``(baseline + grace) / (1 - tolerance)``.  Returns ``(ok, lines)``;
    on failure a line names every breach and a blame line the job phase.
    """
    lines: List[str] = []
    breached: List[str] = []
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
    if breached:
        lines.append("breached tolerance: " + ", ".join(breached))
        lines.append(_blame_serve(fresh_s, base_s))
    return not breached, lines


def _blame_serve(fresh_s: Dict, base_s: Dict) -> str:
    """Name the job phase behind a serve breach (the blame line).

    The endpoint is already in the breach item; the phase comes from the
    per-job ``job_phases`` p95s both blocks record — the phase whose p95
    grew most is the prime suspect (queue-wait growth means the analysis
    threads are saturated, build growth means graph assembly slowed).
    """
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
        return ("serve: no job phase slower than baseline "
                "(HTTP/queueing-side regression)")
    phase, delta, base_p95, got_p95 = worst
    return (f"serve: top regressing phase {phase!r} "
            f"(p95 {base_p95:.2f}ms -> {got_p95:.2f}ms, "
            f"+{delta:.2f}ms vs baseline)")


# ---------------------------------------------------------------------------
# the chaos campaign (--faults)
# ---------------------------------------------------------------------------

def _race_key(error_doc: dict) -> str:
    """A report's *identity*: which two segments conflict on which bytes.

    Everything else in the doc is evidence-dependent annotation a degraded
    run may legitimately lack — notes carry the salvage warnings, witness
    needs --explain, and region/allocation come from the environment chunk
    (lost when the writer dies early).  The loses-but-never-invents check
    must compare the race, not its annotations."""
    conflict = error_doc.get("conflict", {})
    return json.dumps({
        "kind": error_doc.get("kind"),
        "segments": error_doc.get("segments"),
        "ranges": conflict.get("ranges"),
        "bytes": conflict.get("bytes"),
    }, sort_keys=True)


def _well_formed_partial(report: dict) -> List[str]:
    """Degradation-contract violations in one report doc (empty = ok)."""
    problems = []
    for key in ("schema", "errors", "error_count", "coverage", "analysis"):
        if key not in report:
            problems.append(f"missing {key!r}")
    if report.get("schema") != "taskgrind-serve-report/1":
        problems.append(f"bad schema {report.get('schema')!r}")
    resilience = report.get("analysis", {}).get("resilience")
    if resilience is not None:
        pairs = resilience.get("pairs")
        if not isinstance(pairs, dict) or not all(
                isinstance(pairs.get(k), int)
                for k in ("total", "checked", "unchecked")):
            problems.append("resilience block lacks unchecked-pairs "
                            f"accounting (pairs={pairs!r})")
    return problems


def _unsuppressed_races(path: str) -> set:
    """Every candidate the offline pipeline reports with suppression OFF.

    The never-invent universe: a degraded upload can lose the environment
    chunk, and with it the TLS/stack evidence the suppression engine
    needs — previously-suppressed candidates then surface.  That is loss
    of suppression evidence, not race invention (same contract as the
    fault-matrix selftest's salvage path), so the clean universe must be
    the pre-suppression candidate set."""
    from repro.core.trace import analyze_loaded, load_trace_salvaged
    salvaged = load_trace_salvaged(path)
    la = analyze_loaded(salvaged.graph, salvaged.allocator,
                        {"suppress_tls": False, "suppress_stack": False},
                        coverage=salvaged.coverage)
    return {_race_key(report_to_dict(r)) for r in la.reports}


def run_chaos(traces: List[Tuple[str, str]], *, shards: int) -> dict:
    """Every trace × every chaos plan; asserts the degradation contract.

    The server runs with a tight supervised deadline and one retry so a
    wedged analysis worker quarantines instead of eating the bench's
    wall clock; a clean pass per trace provides the race set that no
    degraded run may exceed (salvage can lose races, never invent them).
    """
    trace_lines = {name: read_trace_lines(path) for name, path in traces}
    clean_races: Dict[str, set] = {}
    violations: List[str] = []
    runs: List[dict] = []
    config = ServeConfig(shards=shards, deadline_s=0.05, max_retries=1)
    with ServerThread(config) as srv:
        # retries=0: the chaos sessions must observe the raw injected
        # statuses, not have the backoff client paper over them
        with ServeClient(srv.base_url, retries=0) as client:
            for name, path in traces:
                rec = _Recorder()
                report = run_session(client, trace_lines[name], rec,
                                     expected=None, timeout_s=60.0)
                clean_races[name] = (
                    {_race_key(e) for e in report.get("errors", [])}
                    | _unsuppressed_races(path))
            for name, _path in traces:
                for spec, attacks in CHAOS_PLANS:
                    outcome = _one_chaos_session(
                        client, name, trace_lines[name], spec)
                    outcome["attacks"] = attacks
                    runs.append(outcome)
                    violations.extend(
                        _check_chaos_outcome(outcome, clean_races[name]))
    return {
        "plans": [spec for spec, _ in CHAOS_PLANS],
        "runs": runs,
        "violations": violations,
        "ok": not violations,
    }


def _one_chaos_session(client: ServeClient, name: str, lines: List[bytes],
                       spec: str) -> dict:
    """One trace uploaded and analyzed with ``spec`` armed.

    When the fault surfaces at the upload edge (CRC reject, injected
    worker death) the session records the structured error body and then
    **still analyzes the accepted prefix** — the degradation contract is
    that a partial upload yields a degraded-but-well-formed report, not
    a wedged job.
    """
    outcome: dict = {"trace": name, "plan": spec}
    plan = builtin_plan(spec)
    with inject_plan(plan):
        trace_id = client.create_trace()
        for seq, line in enumerate(lines):
            try:
                status, ack = client.upload_chunk(trace_id, seq, line,
                                                  retry=False)
            except ConnectionError as exc:
                # the injected fault took the connection down mid-PUT: a
                # degraded session (the client lost its window into the
                # server), not a contract violation
                outcome["degraded"] = f"connection dropped at seq {seq}: {exc}"
                outcome["fired"] = dict(plan.fired_summary())
                return outcome
            if status != 200:
                outcome["edge_status"] = status
                outcome["edge_error"] = ack.get("error", {})
                break
        try:
            # single supervised worker: distinct params from the clean
            # session, so the content-addressed result cache cannot serve
            # the clean document — the analysis truly re-runs under the
            # armed plan and a planted hang meets the deadline/quarantine
            # path instead of a cache hit
            job_id = client.analyze(trace_id, workers=1)
            status_doc = client.wait(job_id, timeout=60.0)
        except TimeoutError as exc:
            outcome["hang"] = str(exc)
            outcome["fired"] = dict(plan.fired_summary())
            return outcome
        except ConnectionError as exc:
            # e.g. a worker-hang that stalls the response past the socket
            # timeout — classify degraded, never an unhandled error
            outcome["degraded"] = f"connection dropped mid-analysis: {exc}"
            outcome["fired"] = dict(plan.fired_summary())
            return outcome
        except ReproError as exc:
            outcome["error"] = f"{type(exc).__name__}: {exc}"
            outcome["fired"] = dict(plan.fired_summary())
            return outcome
        outcome["job_state"] = status_doc["state"]
        http_status, report = client.report(job_id)
        if http_status == 200:
            outcome["report"] = report
        else:
            outcome["report_error"] = {"status": http_status, **report}
    outcome["fired"] = dict(plan.fired_summary())
    return outcome


def _check_chaos_outcome(outcome: dict, clean: set) -> List[str]:
    where = f"{outcome['trace']} under {outcome['plan']}"
    if "hang" in outcome:
        return [f"{where}: HANG — {outcome['hang']}"]
    if "degraded" in outcome:
        # a dropped connection under an injected fault proves nothing
        # about the server; the session is degraded, not failed
        return []
    if "error" in outcome:
        return [f"{where}: session error — {outcome['error']}"]
    problems: List[str] = []
    if "edge_status" in outcome:
        err = outcome.get("edge_error", {})
        if outcome["edge_status"] not in (400, 409, 422, 500, 503) \
                or not err.get("type"):
            problems.append(f"{where}: untyped edge rejection "
                            f"{outcome['edge_status']}: {err}")
    if outcome.get("job_state") not in ("done", "degraded"):
        problems.append(f"{where}: job ended {outcome.get('job_state')!r} "
                        "instead of serving a partial report")
    report = outcome.get("report")
    if report is None:
        problems.append(f"{where}: no report document "
                        f"({outcome.get('report_error')})")
        return problems
    problems.extend(f"{where}: {p}" for p in _well_formed_partial(report))
    # an analysis fault has a target only if the analysis has a chunk
    chunks = report.get("analysis", {}).get("resilience", {}).get(
        "chunks", {}).get("total", 0)
    fired = outcome.get("fired")
    if fired is not None and not any(fired.values()) and (
            chunks or outcome["plan"].split("@")[0] not in ANALYSIS_KINDS):
        problems.append(f"{where}: the fault never fired")
    got = {_race_key(e) for e in report.get("errors", [])}
    invented = got - clean
    if invented:
        problems.append(f"{where}: degraded report INVENTED "
                        f"{len(invented)} race(s) absent from clean run")
    return problems


# ---------------------------------------------------------------------------
# the kill-restart campaign (--kill-chaos)
# ---------------------------------------------------------------------------

def _durable_config(state_dir: str, shards: int) -> ServeConfig:
    # fsync=never: the bench kills via WAL freeze, not real SIGKILL, so
    # page-cache durability is irrelevant and the campaign stays fast
    return ServeConfig(shards=shards, state_dir=state_dir, fsync="never")


def _one_kill_session(name: str, lines: List[bytes], spec: str,
                      shards: int, expected: str) -> dict:
    """Upload under an armed journal fault, kill, restart, verify.

    The contract: the journal's surviving ``chunk-accepted`` prefix is
    exactly where the restarted server resumes (never more than the
    client had acked), the resumed upload seals to the same content, the
    analysis report is byte-identical to the offline pipeline, and the
    job executes exactly once in the recovered process.
    """
    outcome: dict = {"trace": name, "plan": spec, "violations": []}
    where = f"{name} under {spec}"
    viol = outcome["violations"].append
    with tempfile.TemporaryDirectory(prefix="serve-kill-") as state_dir:
        srv = ServerThread(_durable_config(state_dir, shards)).start()
        acked = 0
        trace_id = None
        plan = builtin_plan(spec)
        plan.reset()
        try:
            with ServeClient(srv.base_url, retries=0) as client:
                with inject_plan(plan):
                    trace_id = client.create_trace()
                    for seq, line in enumerate(lines):
                        try:
                            status, ack = client.upload_chunk(
                                trace_id, seq, line, retry=False)
                        except ConnectionError as exc:
                            outcome["edge_error"] = f"connection: {exc}"
                            break
                        if status != 200:
                            outcome["edge_status"] = status
                            outcome["edge_error"] = ack.get("error", {})
                            break
                        acked += 1
        except ReproError as exc:
            outcome["edge_error"] = f"{type(exc).__name__}: {exc}"
        finally:
            srv.kill()
        outcome["fired"] = dict(plan.fired_summary())
        outcome["chunks_acked"] = acked
        if trace_id is None:
            viol(f"{where}: create_trace failed before the fault armed")
            return outcome

        # ground truth: what the torn journal actually holds
        records, _info = read_wal(os.path.join(state_dir, "wal.jsonl"))
        journaled = sum(1 for r in records if r.kind == "chunk-accepted")
        outcome["chunks_journaled"] = journaled
        if journaled > acked:
            viol(f"{where}: journal holds {journaled} chunks but the "
                 f"client only saw {acked} acks — invented work")

        srv = ServerThread(_durable_config(state_dir, shards)).start()
        try:
            with ServeClient(srv.base_url) as client:
                doc = client.trace_status(trace_id)
                if doc["next_seq"] != journaled:
                    viol(f"{where}: recovered next_seq={doc['next_seq']} "
                         f"!= journaled prefix {journaled}")
                _tid, ack = client.upload_trace(lines, resume=trace_id)
                if ack.get("state") != "complete":
                    viol(f"{where}: resumed upload did not seal: {ack}")
                job_id = client.analyze(trace_id)
                done = client.wait(job_id, timeout=120.0)
                if done["state"] != "done":
                    viol(f"{where}: post-recovery job ended "
                         f"{done['state']!r}")
                http_status, report = client.report(job_id)
                if http_status != 200:
                    viol(f"{where}: report fetch failed: {http_status}")
                elif json.dumps(report.get("errors"),
                                sort_keys=True) != expected:
                    viol(f"{where}: post-recovery report diverged from "
                         "offline analysis")
                executions = srv.service.pool.get(job_id).executions
                if executions != 1:
                    viol(f"{where}: job executed {executions} times "
                         "(exactly-once violated)")
        except (ReproError, TimeoutError, ConnectionError) as exc:
            viol(f"{where}: recovery session failed — "
                 f"{type(exc).__name__}: {exc}")
        finally:
            srv.stop()
    return outcome


def _one_kill_mid_analysis(name: str, lines: List[bytes], shards: int,
                           expected: str) -> dict:
    """Kill while the job runs; restart must re-enqueue it exactly once.

    The kill fires inside the job's terminal journal append, a point
    every analysis reaches (one with no candidate pair has no chunk for
    a ``worker-hang`` to stall), so the journal keeps the enqueue and
    loses the finish, whatever the trace.
    """
    outcome: dict = {"trace": name, "plan": "kill-mid-analysis",
                     "violations": []}
    where = f"{name} under kill-mid-analysis"
    viol = outcome["violations"].append
    with tempfile.TemporaryDirectory(prefix="serve-kill-") as state_dir:
        srv = ServerThread(_durable_config(state_dir, shards)).start()
        job_id = None
        try:
            with ServeClient(srv.base_url) as client:
                trace_id, _ = client.upload_trace(lines)
                # the next two records: the job's enqueue, then its finish
                records, _info = read_wal(os.path.join(state_dir,
                                                       "wal.jsonl"))
                plan = FaultPlan.single("kill-server", len(records) + 1)
                with inject_plan(plan):
                    job_id = client.analyze(trace_id, workers=1)
                    client.wait(job_id, timeout=120.0)
                outcome["fired"] = dict(plan.fired_summary())
                if not any(outcome["fired"].values()):
                    viol(f"{where}: the kill never fired")
        except (ReproError, TimeoutError, ConnectionError) as exc:
            viol(f"{where}: setup failed — {type(exc).__name__}: {exc}")
        finally:
            srv.kill()
        if job_id is None:
            return outcome

        srv = ServerThread(_durable_config(state_dir, shards)).start()
        try:
            requeued = [j.job_id for j in
                        srv.service.durable.recovered.requeue_jobs]
            outcome["requeued"] = requeued
            if requeued != [job_id]:
                viol(f"{where}: expected exactly [{job_id}] re-enqueued, "
                     f"got {requeued}")
            with ServeClient(srv.base_url) as client:
                done = client.wait(job_id, timeout=120.0)
                if done["state"] != "done":
                    viol(f"{where}: recovered job ended {done['state']!r}")
                http_status, report = client.report(job_id)
                if http_status != 200:
                    viol(f"{where}: report fetch failed: {http_status}")
                elif json.dumps(report.get("errors"),
                                sort_keys=True) != expected:
                    viol(f"{where}: recovered report diverged from "
                         "offline analysis")
            executions = srv.service.pool.get(job_id).executions
            if executions != 1:
                viol(f"{where}: job executed {executions} times after "
                     "recovery (exactly-once violated)")
        except (ReproError, TimeoutError, ConnectionError) as exc:
            viol(f"{where}: recovery session failed — "
                 f"{type(exc).__name__}: {exc}")
        finally:
            srv.stop()
    return outcome


def run_kill_chaos(traces: List[Tuple[str, str]], *, shards: int,
                   kinds: Optional[List[str]] = None) -> dict:
    """Every trace × every kill plan, each against a fresh ``--state-dir``.

    ``kinds`` filters the mid-upload plans by fault kind (the nightly
    matrix runs one kind per leg); the mid-analysis round runs whenever
    ``kill-server`` is in scope, since it models the same SIGKILL.
    """
    runs: List[dict] = []
    violations: List[str] = []
    active = [(spec, attacks) for spec, attacks in KILL_PLANS
              if not kinds or spec.split("@")[0] in kinds]
    for name, path in traces:
        lines = read_trace_lines(path)
        expected = json.dumps(
            [report_to_dict(r) for r in analyze_trace(path)], sort_keys=True)
        for spec, attacks in active:
            outcome = _one_kill_session(name, lines, spec, shards, expected)
            outcome["attacks"] = attacks
            violations.extend(outcome.pop("violations"))
            runs.append(outcome)
        if not kinds or "kill-server" in kinds:
            outcome = _one_kill_mid_analysis(name, lines, shards, expected)
            outcome["attacks"] = ("SIGKILL while the analysis job runs, "
                                  "inside its terminal journal append")
            violations.extend(outcome.pop("violations"))
            runs.append(outcome)
    return {
        "plans": [spec for spec, _ in active],
        "runs": runs,
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# the overload round (--overload)
# ---------------------------------------------------------------------------

def run_overload(traces: List[Tuple[str, str]], *, probes: int = 10) -> dict:
    """A full job queue must shed typed 429s that backoff rides out.

    One analysis thread, queue depth 1, worker wedged: every extra
    analyze must be a typed 429 with ``Retry-After`` (never an untyped
    drop), and a retrying client must reach 202 once the queue frees.
    """
    _name, path = traces[0]
    lines = read_trace_lines(path)
    violations: List[str] = []
    typed_429s = 0
    config = ServeConfig(shards=1, max_queue_depth=1, retry_after_s=0.02)
    with ServerThread(config) as srv:
        with ServeClient(srv.base_url, retries=0) as raw, \
                ServeClient(srv.base_url, retries=10, backoff_base_s=0.02,
                            backoff_cap_s=0.2) as patient:
            trace_id, _ = raw.upload_trace(lines)
            with inject_plan(FaultPlan.single("worker-hang", 0,
                                              seconds=0.4, times=1)):
                first_job = raw.analyze(trace_id)   # occupies the queue
                for i in range(probes):
                    status, doc = raw.request(
                        "POST", f"/v1/traces/{trace_id}/analyze",
                        retry=False)
                    err = doc.get("error", {})
                    if status != 429 or err.get("type") != \
                            "ServeOverloadError":
                        violations.append(
                            f"probe {i}: untyped shed {status}: {doc}")
                    elif "retry-after" not in raw.last_headers:
                        violations.append(
                            f"probe {i}: 429 without Retry-After")
                    else:
                        typed_429s += 1
                try:
                    second_job = patient.analyze(trace_id)
                except ReproError as exc:
                    violations.append("backoff client could not ride out "
                                      f"the full queue: {exc}")
                    second_job = None
            sleeps = patient.retry_sleeps
            if sleeps == 0:
                violations.append("backoff client never slept — the "
                                  "queue was supposed to be full")
            for job_id in (first_job, second_job):
                if job_id is not None:
                    done = patient.wait(job_id, timeout=120.0)
                    if done["state"] != "done":
                        violations.append(f"job {job_id} ended "
                                          f"{done['state']!r}")
    return {
        "probes": probes,
        "typed_429s": typed_429s,
        "retry_sleeps": sleeps,
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clients", type=int, default=4,
                    help="concurrent client threads (default: 4)")
    ap.add_argument("--rounds", type=int, default=2,
                    help="times each trace is replayed (default: 2)")
    ap.add_argument("--shards", type=int, default=4,
                    help="server analysis threads (default: 4)")
    ap.add_argument("--max-traces", type=int, default=6,
                    help="trace-set size cap incl. corpus (default: 6)")
    ap.add_argument("--corpus-dir", default=None,
                    help="fuzz corpus directory (default: autodetect "
                         "tests/fuzz/corpus)")
    ap.add_argument("--no-verify", action="store_true",
                    help="skip the offline byte-parity check per session")
    ap.add_argument("--faults", action="store_true",
                    help="run the chaos campaign instead of the load bench")
    ap.add_argument("--kill-chaos", action="store_true",
                    help="run the kill-and-restart durability campaign")
    ap.add_argument("--kill-kinds", default=None,
                    help="comma-separated fault kinds for --kill-chaos "
                         "(default: wal-torn-write,kill-server)")
    ap.add_argument("--overload", action="store_true",
                    help="run the typed-429 overload round")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write the bench document here")
    ap.add_argument("--merge-into", metavar="PATH", default=None,
                    help="update the 'serve' block of an existing perf "
                         "document (BENCH_perf.json)")
    ap.add_argument("--baseline", metavar="PATH", default=None,
                    help="perf document with a committed 'serve' block "
                         "to gate against")
    ap.add_argument("--tolerance", type=float, default=0.4,
                    help="gate tolerance as a fraction (default: 0.4)")
    args = ap.parse_args(argv)

    corpus_dir = args.corpus_dir
    if corpus_dir is None:
        candidate = _repo_root() / "tests" / "fuzz" / "corpus"
        corpus_dir = str(candidate) if candidate.is_dir() else None
    with tempfile.TemporaryDirectory(prefix="serve-bench-") as workdir:
        print("recording trace set "
              f"(corpus: {corpus_dir or 'none found'})...")
        traces = materialize_traces(workdir, corpus_dir=corpus_dir,
                                    max_traces=max(2, args.max_traces))
        total_chunks = sum(len(read_trace_lines(p)) for _n, p in traces)
        print(f"  {len(traces)} traces, {total_chunks} chunks: "
              + ", ".join(name for name, _ in traces))
        if args.kill_chaos:
            kinds = ([k.strip() for k in args.kill_kinds.split(",")
                      if k.strip()] if args.kill_kinds else None)
            doc = {"schema": SCHEMA, "bench": "serve-kill-chaos",
                   "chaos": run_kill_chaos(traces, shards=args.shards,
                                           kinds=kinds)}
        elif args.overload:
            doc = {"schema": SCHEMA, "bench": "serve-overload",
                   "chaos": run_overload(traces)}
        elif args.faults:
            doc = {"schema": SCHEMA, "bench": "serve-chaos",
                   "chaos": run_chaos(traces, shards=args.shards)}
        else:
            serve_block = run_load(traces, clients=args.clients,
                                   rounds=args.rounds, shards=args.shards,
                                   verify=not args.no_verify)
            doc = {"schema": SCHEMA, "bench": "serve", "serve": serve_block}

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")

    if args.faults or args.kill_chaos or args.overload:
        chaos = doc["chaos"]
        label = doc["bench"]
        sessions = len(chaos.get("runs", [])) or chaos.get("probes", 0)
        print(f"{label}: {sessions} fault sessions, "
              f"{len(chaos['violations'])} violation(s)")
        for v in chaos["violations"]:
            print(f"  VIOLATION: {v}", file=sys.stderr)
        return 0 if chaos["ok"] else 1

    serve_block = doc["serve"]
    print(f"\n{serve_block['sessions']} sessions / "
          f"{serve_block['chunks_uploaded']} chunks in "
          f"{serve_block['elapsed_s']:.2f}s "
          f"({serve_block['throughput_chunks_per_s']:.0f} chunks/s)")
    for name, entry in serve_block["endpoints"].items():
        print(f"  {name:<13} p50 {entry['p50_ms']:8.3f}ms   "
              f"p95 {entry['p95_ms']:8.3f}ms   n={entry['count']}")
    for msg in serve_block["failures"]:
        print(f"  session failure: {msg}", file=sys.stderr)
    for msg in serve_block["mismatches"]:
        print(f"  PARITY MISMATCH: {msg}", file=sys.stderr)
    if serve_block["failures"] or serve_block["mismatches"]:
        return 1

    if args.merge_into:
        perf_doc = load_baseline(args.merge_into)
        if perf_doc is None:
            return EXIT_BASELINE_UNUSABLE
        perf_doc["serve"] = serve_block
        with open(args.merge_into, "w") as fh:
            json.dump(perf_doc, fh, indent=2)
            fh.write("\n")
        print(f"merged serve block into {args.merge_into}")

    if args.baseline:
        baseline = load_baseline(args.baseline)
        if baseline is None:
            return EXIT_BASELINE_UNUSABLE
        if not baseline.get("serve"):
            print(f"baseline {args.baseline} has no 'serve' block — "
                  "regenerate with: python -m repro.bench.serve "
                  f"--merge-into {args.baseline}", file=sys.stderr)
            return EXIT_BASELINE_UNUSABLE
        ok, lines = _check_serve(serve_block, baseline["serve"],
                                 args.tolerance)
        print(f"\nserve gate vs {args.baseline} "
              f"(tolerance {args.tolerance:.0%}):")
        for line in lines:
            print(f"  {line}")
        if not ok:
            print("serve perf gate FAILED", file=sys.stderr)
            return 1
        print("serve perf gate passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
