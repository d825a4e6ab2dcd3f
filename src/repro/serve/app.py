"""The race-analysis service: routes, job executor, error mapping.

Request handlers run on the event loop and stay cheap (edge validation,
executor submits, dict lookups); the only CPU-heavy work — graph assembly
and Algorithm 1 — happens in :class:`~repro.serve.jobs.JobPool` executor
threads, each job on a graph of its own.  Report documents are
**content-addressed**: they carry the upload's content hash but no job
ids, so a memo hit can serve the exact bytes a previous job produced and
the serve-smoke byte-parity check against ``repro.core.offline`` is
meaningful.

Error mapping (the :mod:`repro.errors` taxonomy → HTTP):

====================================  ======
:class:`TraceFormatError` (+Version)  400
:class:`ResourceNotFound`             404
:class:`UploadSequenceError`          409
:class:`JobStateError`                409
:class:`TraceCorruptionError`         422
:class:`ServeOverloadError`           429 (503 while draining), with a
                                      ``Retry-After`` header
:class:`InjectedFault` (upload path)  503
anything else                         500
====================================  ======
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.reports import report_to_dict
from repro.core.trace import analyze_loaded, assemble_chunks
from repro.errors import (InjectedFault, JobStateError, ResourceNotFound,
                          ServeError, ServeOverloadError,
                          TraceCorruptionError, TraceFormatError,
                          UploadSequenceError)
from repro.obs.metrics import get_registry
from repro.serve.durable import DurableLog
from repro.serve.http import Request, Response
from repro.serve.jobs import AnalysisJob, JobPool
from repro.serve.overload import AdmissionControl
from repro.serve.store import TraceStore

import json

REPORT_SCHEMA = "taskgrind-serve-report/1"

_STATUS_OF = ((UploadSequenceError, 409), (JobStateError, 409),
              (ResourceNotFound, 404), (TraceCorruptionError, 422),
              (TraceFormatError, 400), (ServeOverloadError, 429),
              (InjectedFault, 503))


def error_response(exc: Exception) -> Response:
    for cls, status in _STATUS_OF:
        if isinstance(exc, cls):
            body = {"type": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, ServeError):
                body.update(exc.fields())
            if isinstance(exc, InjectedFault):
                body["fault_kind"] = exc.fault_kind
            if isinstance(exc, TraceCorruptionError):
                body.update({"chunk_seq": exc.chunk_seq,
                             "byte_offset": exc.byte_offset})
            headers = {}
            if isinstance(exc, ServeOverloadError):
                # a draining server is *going away*, not momentarily busy
                status = 503 if exc.draining else 429
                headers["Retry-After"] = f"{exc.retry_after_s:.3f}"
            return Response(status=status, doc={"error": body},
                            headers=headers)
    return Response(status=500, doc={"error": {
        "type": type(exc).__name__, "message": str(exc)}})


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


#: the analyze request body's fields: ``name -> (valid?, what it must be)``
_ANALYZE_FIELDS = {
    "workers": (lambda v: _is_int(v) and v >= 1, "an int >= 1"),
    "deadline_s": (lambda v: v is None or (
        (_is_int(v) or isinstance(v, float)) and math.isfinite(v) and v > 0),
        "null or a finite number > 0"),
    "max_retries": (lambda v: _is_int(v) and v >= 0, "an int >= 0"),
    "explain": (lambda v: isinstance(v, bool), "a bool"),
}


def _parse_analyze_options(trace_id: str, body: bytes) -> dict:
    """The analyze request's option overrides, validated at the edge.

    The body is empty or a JSON object whose keys are a subset of
    :data:`_ANALYZE_FIELDS`; anything else is a
    :class:`~repro.errors.TraceFormatError` (400) naming the field, so a
    malformed request never reaches the job executor.
    """
    try:
        opts = json.loads(body) if body.strip() else {}
    except json.JSONDecodeError as exc:
        raise TraceFormatError(trace_id,
                               f"analyze options: {exc.msg}") from exc
    if not isinstance(opts, dict):
        raise TraceFormatError(trace_id, "analyze options: the body must be "
                                         "a JSON object")
    for key, value in opts.items():
        if key not in _ANALYZE_FIELDS:
            raise TraceFormatError(
                trace_id, f"analyze options: unknown field {key!r} "
                          f"(expected {', '.join(_ANALYZE_FIELDS)})")
        valid, want = _ANALYZE_FIELDS[key]
        if not valid(value):
            raise TraceFormatError(
                trace_id, f"analyze options: {key} must be {want}, "
                          f"got {value!r}")
    return opts


@dataclass
class ServeConfig:
    host: str = "127.0.0.1"
    port: int = 0                      # 0: kernel-assigned (tests/bench)
    #: analysis executor threads
    shards: int = 4
    analysis_workers: int = 2
    deadline_s: Optional[float] = None
    max_retries: int = 2
    #: durable state directory (None: in-memory only, nothing survives)
    state_dir: Optional[str] = None
    fsync: str = "always"              # WAL fsync policy: always|interval|never
    #: admission control: bounded queue depth + in-flight upload bytes
    max_queue_depth: int = 256
    max_upload_bytes: int = 256 * 1024 * 1024
    retry_after_s: float = 0.25


class TraceService:
    """Everything behind the routes; owns store, result memo and pool."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.durable: Optional[DurableLog] = None
        if cfg.state_dir is not None:
            # raises StateDirError on an unusable dir: a server asked to
            # be durable must refuse to start, not fall back to memory
            self.durable = DurableLog(cfg.state_dir,
                                      fsync_policy=cfg.fsync)
        self.store = TraceStore(durable=self.durable)
        #: finished non-degraded reports by (content hash, analysis
        #: options).  Unbounded like the pool's job table, which keeps
        #: every result document alive anyway.
        self._results: Dict[tuple, dict] = {}
        self.pool = JobPool(self._execute_job, threads=cfg.shards,
                            durable=self.durable)
        self.admission = AdmissionControl(
            max_queue_depth=cfg.max_queue_depth,
            max_upload_bytes=cfg.max_upload_bytes,
            retry_after_s=cfg.retry_after_s)
        self.draining = False
        self._requeue: List[AnalysisJob] = []
        if self.durable is not None:
            self.store.restore(self.durable.recovered)
            self._requeue = self.pool.restore(self.durable.recovered)
        self.started_at = time.time()

    def resume_recovered(self) -> None:
        """Re-enqueue jobs that were queued/running at crash time.

        Called once by the server after the pool's executor exists;
        recovery compaction already re-emitted each job's
        ``job-enqueued`` record, so each runs exactly once.
        """
        jobs, self._requeue = self._requeue, []
        for job in jobs:
            self.pool.submit(job)

    def close(self, *, clean: bool = True) -> None:
        """Release the durable log (journaling the clean-shutdown marker
        on a graceful stop; a frozen/killed journal ignores both)."""
        if self.durable is not None:
            if clean:
                self.durable.clean_shutdown()
            self.durable.close()

    def _admit(self, endpoint: str) -> None:
        """Work-accepting endpoints refuse new work while draining."""
        if self.draining:
            raise ServeOverloadError(endpoint, draining=True,
                                     retry_after_s=self.config.retry_after_s)

    # -- routing -------------------------------------------------------------

    async def handle(self, req: Request) -> Response:
        reg = get_registry()
        endpoint, resp = "unmatched", None
        t0 = time.perf_counter()
        try:
            endpoint, resp = self._dispatch(req)
        except Exception as exc:  # noqa: BLE001 — every error becomes JSON
            resp = error_response(exc)
        finally:
            reg.counter(f"serve.http.{endpoint}.requests").inc()
            if resp is not None and resp.status >= 400:
                reg.counter(f"serve.http.{endpoint}.errors").inc()
            reg.histogram(f"serve.http.{endpoint}.us").observe(
                (time.perf_counter() - t0) * 1e6)
        return resp

    def _dispatch(self, req: Request) -> Tuple[str, Response]:
        parts = [p for p in req.path.split("/") if p]
        method = req.method
        if parts == ["healthz"] and method == "GET":
            return "healthz", Response(doc={"ok": True,
                                            "uptime_s": time.time()
                                            - self.started_at})
        if parts == ["metrics"] and method == "GET":
            return "metrics", Response(
                body=get_registry().render_prom().encode("utf-8"),
                content_type="text/plain; version=0.0.4")
        if parts[:1] == ["v1"] and len(parts) >= 2:
            if parts[1] == "traces":
                return self._dispatch_traces(method, parts, req)
            if parts[1] == "jobs":
                return self._dispatch_jobs(method, parts)
        return "unmatched", Response(status=404, doc={"error": {
            "type": "ResourceNotFound",
            "message": f"no route for {method} {req.path}"}})

    def _run(self, endpoint: str, fn, *args) -> Tuple[str, Response]:
        """Run one matched route; errors become responses *with the
        endpoint attributed*, which the per-endpoint metrics rely on."""
        try:
            return endpoint, fn(*args)
        except Exception as exc:  # noqa: BLE001 — every error becomes JSON
            return endpoint, error_response(exc)

    def _dispatch_traces(self, method: str, parts,
                         req: Request) -> Tuple[str, Response]:
        if parts == ["v1", "traces"] and method == "POST":
            return self._run("create_trace", self._create_trace)
        if len(parts) == 5 and parts[3] == "chunks" and method == "PUT":
            return self._run("upload_chunk", self._upload_chunk,
                             parts[2], parts[4], req)
        if len(parts) == 3 and method == "GET":
            return self._run("trace_status", lambda: Response(
                doc=self.store.get(parts[2]).to_dict()))
        if len(parts) == 4 and parts[3] == "analyze" and method == "POST":
            return self._run("analyze", self._start_analysis,
                             parts[2], req)
        raise ResourceNotFound("route", "/".join(parts))

    def _dispatch_jobs(self, method: str, parts) -> Tuple[str, Response]:
        if method != "GET" or len(parts) not in (3, 4):
            raise ResourceNotFound("route", "/".join(parts))
        if len(parts) == 3:
            return self._run("job_status", lambda: Response(
                doc=self.pool.get(parts[2]).status_dict()))
        if parts[3] == "report":
            return self._run("report", self._report, parts[2])
        if parts[3] == "timeline":
            return self._run("timeline", lambda: Response(doc={
                "displayTimeUnit": "ms",
                "traceEvents": self.pool.get(parts[2]).timeline_events()}))
        raise ResourceNotFound("route", "/".join(parts))

    def _create_trace(self) -> Response:
        self._admit("create_trace")
        up = self.store.create()
        return Response(status=201, doc=up.to_dict())

    def _upload_chunk(self, trace_id: str, seq_str: str,
                      req: Request) -> Response:
        self._admit("upload_chunk")
        try:
            seq = int(seq_str)
        except ValueError:
            raise TraceFormatError(trace_id,
                                   f"non-integer seq {seq_str!r}") from None
        self.admission.admit_upload(self.store.open_bytes(), len(req.body))
        with get_registry().phase("serve.ingest"):
            ack = self.store.add_chunk(trace_id, seq, req.body)
        return Response(doc=ack)

    def _report(self, job_id: str) -> Response:
        job = self.pool.get(job_id)
        doc = dict(self.pool.report_of(job_id))
        doc["job_id"] = job.job_id
        doc["trace_id"] = job.trace_id
        return Response(doc=doc)

    def _start_analysis(self, trace_id: str, req: Request) -> Response:
        self._admit("analyze")
        self.admission.admit_job(self.pool.active_count())
        up = self.store.get(trace_id)
        opts = _parse_analyze_options(trace_id, req.body)
        cfg = self.config
        params = {
            "workers": opts.get("workers", cfg.analysis_workers),
            "deadline_s": opts.get("deadline_s", cfg.deadline_s),
            "max_retries": opts.get("max_retries", cfg.max_retries),
            "explain": opts.get("explain", False),
            # analyses of an in-flight upload see a stable prefix snapshot
            "chunk_count": len(up.chunks),
        }
        job = self.pool.create(trace_id, up.content_hash, params)
        self.pool.submit(job)
        return Response(status=202, doc={"job_id": job.job_id,
                                         "trace_id": trace_id,
                                         "state": job.state,
                                         "content_hash": job.content_hash})

    # -- the job executor (runs on an executor thread) -----------------------

    def _execute_job(self, job: AnalysisJob) -> Tuple[dict, bool]:
        reg = get_registry()
        p = job.params
        key = (job.content_hash, p["workers"], p["deadline_s"],
               p["max_retries"], p["explain"])
        cached = self._results.get(key)
        if cached is not None:
            job.cache_hit = True
            reg.counter("serve.cache.result.hits").inc()
            return cached, False
        up = self.store.get(job.trace_id)
        chunks = up.chunks[:p["chunk_count"]]    # append-only: safe snapshot
        with job.span("build"), reg.phase("serve.build"):
            # the graph is this job's alone: analysis counts its queries
            salvaged = assemble_chunks(chunks)
        with job.span("analyze"), reg.phase("serve.analyze"):
            la = analyze_loaded(salvaged.graph, salvaged.allocator,
                                salvaged.suppression,
                                coverage=salvaged.coverage,
                                workers=p["workers"],
                                explain=p["explain"],
                                deadline_s=p["deadline_s"],
                                max_retries=p["max_retries"])
        with job.span("report"):
            doc = {
                "schema": REPORT_SCHEMA,
                "content_hash": job.content_hash,
                "analysis": {
                    "raw_candidates": la.raw_candidates,
                    "reports": len(la.reports),
                    "stack_local_intervals": la.partial.stack_local_intervals,
                    "resilience": la.partial.to_dict(),
                },
                "errors": [report_to_dict(r) for r in la.reports],
                "error_count": len(la.reports),
                "suppress": la.engine.stats_doc(),
                "coverage": salvaged.coverage.to_dict(),
                "graph": salvaged.graph.stats(),
                "record_run": salvaged.stats,
            }
        degraded = (not salvaged.coverage.complete
                    or not la.partial.complete)
        if not degraded:
            # degraded results are never memoized: the damage may be a
            # transient fault, and the same content hash must be able to
            # analyze clean once the fault clears.  Two concurrent misses
            # on one key both run and store equal documents.
            self._results[key] = doc
        return doc, degraded
