"""Analysis job pool for the ingestion server.

Jobs run on one :class:`~concurrent.futures.ThreadPoolExecutor`, whose
work queue is the only job queue: the event loop hands a job over once
its response is written and keeps serving uploads while jobs grind.
Each job assembles its own segment graph, so jobs of the same trace may
run at the same time on different threads.

The job executor reuses :func:`repro.core.trace.analyze_loaded` — the same
supervised deadline/retry/quarantine machinery as the offline pipeline —
so a hung or crashing analysis worker degrades the job to a *partial*
report with ``unchecked_pairs`` accounting instead of wedging a thread.

Job lifecycle: ``queued → running → done | degraded | failed``.
``degraded`` means the report is well-formed but carries incomplete-
evidence or incomplete-analysis notes (salvaged upload, quarantined
chunks); ``failed`` means an exception escaped the executor and there is
no report.  Every state change books ``serve.jobs.*`` metrics, and each
job records its own phase spans (queue-wait/build/analyze/report) for the
per-job Chrome-trace timeline artifact.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import JobStateError, ResourceNotFound
from repro.obs.metrics import get_registry

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
DEGRADED = "degraded"
FAILED = "failed"
TERMINAL = frozenset({DONE, DEGRADED, FAILED})


@dataclass
class AnalysisJob:
    """One enqueued analysis of one uploaded trace."""

    job_id: str
    trace_id: str
    content_hash: str
    params: dict
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.perf_counter)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: (name, start-offset-seconds, duration-seconds) relative to submit
    spans: List[Tuple[str, float, float]] = field(default_factory=list)
    cache_hit: bool = False
    error: Optional[dict] = None
    result: Optional[dict] = None
    #: how many times an executor actually ran this job — the chaos bench
    #: asserts it never exceeds 1 across a kill/restart cycle
    executions: int = 0
    #: True when this job was rebuilt from the journal after a restart
    recovered: bool = False
    _done: threading.Event = field(default_factory=threading.Event)

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.spans.append((name, t0 - self.submitted_at, t1 - t0))

    def status_dict(self) -> dict:
        now = time.perf_counter()
        doc = {
            "job_id": self.job_id,
            "trace_id": self.trace_id,
            "content_hash": self.content_hash,
            "state": self.state,
            "params": dict(self.params),
            "cache_hit": self.cache_hit,
            "recovered": self.recovered,
            "queue_wait_s": ((self.started_at or now) - self.submitted_at),
            "phases": {name: dur for name, _start, dur in self.spans},
        }
        if self.finished_at is not None:
            doc["elapsed_s"] = self.finished_at - self.submitted_at
        if self.error is not None:
            doc["error"] = dict(self.error)
        if self.result is not None:
            doc["error_count"] = self.result.get("error_count")
        return doc

    def timeline_events(self) -> List[dict]:
        """The job's phases as Chrome trace-event ``X`` spans (µs)."""
        def us(seconds: float) -> int:
            return max(0, int(seconds * 1e6))
        events = [{"ph": "M", "ts": 0, "pid": 1, "tid": 0,
                   "name": "thread_name", "args": {"name": "job"}}]
        if self.started_at is not None:
            events.append({
                "ph": "X", "ts": 0, "pid": 1, "tid": 0,
                "name": "queue-wait", "cat": "serve",
                "dur": us(self.started_at - self.submitted_at)})
        for name, start, dur in sorted(self.spans, key=lambda s: s[1]):
            events.append({"ph": "X", "ts": us(start), "pid": 1,
                           "tid": 0, "name": name, "cat": "serve",
                           "dur": us(dur),
                           "args": {"job": self.job_id}})
        return events

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state (test helper)."""
        return self._done.wait(timeout)


class JobPool:
    """The executor threads behind ``POST .../analyze``."""

    def __init__(self, execute: Callable[[AnalysisJob], Tuple[dict, bool]],
                 *, threads: int = 4, durable=None) -> None:
        self.threads = max(1, threads)
        self._execute_fn = execute
        self._pool: Optional[ThreadPoolExecutor] = None
        self._jobs: Dict[str, AnalysisJob] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._durable = durable

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=self.threads,
                                        thread_name_prefix="serve-analysis")

    def stop(self) -> None:
        """Stop without waiting: queued jobs never start (a durable
        server re-enqueues them on restart), running ones finish on
        their threads."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- submission / lookup -------------------------------------------------

    def create(self, trace_id: str, content_hash: str,
               params: dict) -> AnalysisJob:
        with self._lock:
            self._next_id += 1
            job = AnalysisJob(job_id=f"j{self._next_id}", trace_id=trace_id,
                              content_hash=content_hash, params=params)
            self._jobs[job.job_id] = job
        if self._durable is not None:
            # write-ahead: the enqueue is journaled before the client can
            # see the job id.  Recovered jobs come from restore(), so
            # their compacted record is never journaled twice.
            self._durable.job_enqueued(job.job_id, trace_id, content_hash,
                                       params)
        return job

    def get(self, job_id: str) -> AnalysisJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ResourceNotFound("job", job_id)
        return job

    def report_of(self, job_id: str) -> dict:
        job = self.get(job_id)
        if job.state in (QUEUED, RUNNING):
            raise JobStateError(job.job_id, job.state,
                                "report not ready; poll GET /v1/jobs/{id}")
        if job.result is None:
            raise JobStateError(job.job_id, job.state,
                                "job failed without a report: "
                                + str((job.error or {}).get("message")))
        return job.result

    def active_count(self) -> int:
        """Non-terminal jobs — the admission controller's queue-depth
        measure (queued *and* running both hold resources)."""
        with self._lock:
            return sum(1 for j in self._jobs.values()
                       if j.state not in TERMINAL)

    def submit(self, job: AnalysisJob) -> None:
        """Queue ``job`` on the executor (``create`` journaled it).

        Call on the event loop.  The handoff waits for the loop's current
        callback to end: a thread that started the job at once would
        hold the GIL while the caller's response is still unsent.
        """
        reg = get_registry()
        reg.counter("serve.jobs.submitted").inc()
        reg.gauge("serve.jobs.inflight").set(self.active_count())
        asyncio.get_running_loop().call_soon(self._hand_off, job)

    def _hand_off(self, job: AnalysisJob) -> None:
        if self._pool is not None:      # stopped meanwhile: stays queued
            self._pool.submit(self._run_one, job)

    async def drain(self) -> None:
        """Graceful shutdown: wait for every submitted job to finish.

        One loop pass first lets the handoffs already scheduled reach the
        executor; its own shutdown then does the waiting, off the event
        loop so reads keep being served meanwhile.  The server has
        stopped admitting analyses before it drains.
        """
        await asyncio.sleep(0)
        if self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.shutdown)

    # -- the executor thread -------------------------------------------------

    def _run_one(self, job: AnalysisJob) -> None:
        reg = get_registry()
        job.started_at = time.perf_counter()
        job.state = RUNNING
        reg.histogram("serve.jobs.queue_wait_us").observe(
            (job.started_at - job.submitted_at) * 1e6)
        job.executions += 1
        try:
            result, degraded = self._execute_fn(job)
            state = DEGRADED if degraded else DONE
            if self._durable is not None:
                # write-ahead: the terminal record (and its result blob)
                # are durable before clients can observe the state.  If a
                # kill fires inside this append, the journal freezes, the
                # raise lands in the except arm, and the restarted server
                # re-enqueues the job — losing the finish, never the job.
                self._durable.job_terminal(job.job_id, state, result=result)
            job.result = result
            job.state = state
            reg.counter("serve.jobs.degraded" if degraded
                        else "serve.jobs.completed").inc()
        except Exception as exc:  # noqa: BLE001 — a thread must survive any job
            job.error = {"type": type(exc).__name__, "message": str(exc)}
            job.state = FAILED
            if self._durable is not None:
                # a frozen (killed) journal makes this a no-op, which is
                # exactly right: a dead server journals nothing
                self._durable.job_terminal(job.job_id, FAILED,
                                           error=job.error)
            reg.counter("serve.jobs.failed").inc()
        finally:
            job.finished_at = time.perf_counter()
            reg.histogram("serve.jobs.exec_us").observe(
                (job.finished_at - job.started_at) * 1e6)
            job._done.set()

    # -- crash recovery ------------------------------------------------------

    def restore(self, recovered) -> List[AnalysisJob]:
        """Rebuild jobs from a :class:`~repro.serve.durable.RecoveredState`.

        Terminal jobs come back with their byte-identical result document
        and a set done-event; jobs that were queued or running when the
        server died are returned for the caller to re-submit **exactly
        once** after the pool starts (they cannot be queued here — the
        executor does not exist yet).
        """
        requeue: List[AnalysisJob] = []
        with self._lock:
            for rec in recovered.jobs.values():
                job = AnalysisJob(job_id=rec.job_id, trace_id=rec.trace_id,
                                  content_hash=rec.content_hash,
                                  params=dict(rec.params), recovered=True)
                if rec.state is not None:
                    job.state = rec.state
                    job.result = rec.result
                    job.error = rec.error
                    job.finished_at = job.submitted_at
                    job._done.set()
                else:
                    requeue.append(job)
                self._jobs[job.job_id] = job
            self._next_id = max(self._next_id, recovered.max_job_num)
        return requeue
