"""Race-analysis-as-a-service: the trace-ingestion server.

Streamed ``taskgrind-trace/2`` chunk uploads with CRC validation at the
edge (:mod:`repro.serve.store`), one executor of analysis threads reusing
the supervised analysis's deadline/retry/quarantine machinery, each job
on a graph of its own (:mod:`repro.serve.jobs`), finished reports
memoized by content hash and analysis options, and a stdlib-only
HTTP/1.1 JSON API (:mod:`repro.serve.http`, :mod:`repro.serve.app`).

Durability (ROADMAP: crash-recoverable service): with ``--state-dir``
every accepted chunk and job transition is journaled write-ahead
(:mod:`repro.serve.wal`, :mod:`repro.serve.durable`) so a restarted
server recovers sealed uploads byte-exactly, resumes partial uploads at
the journaled ``next_seq``, and re-enqueues interrupted jobs exactly
once.  Overload is shed, not absorbed (:mod:`repro.serve.overload`):
a bounded job queue and bounded in-flight upload bytes answer typed 429s
with ``Retry-After``, which :class:`ServeClient` honors with
decorrelated-jitter backoff.

Entry points: ``python -m repro serve`` (CLI), or in-process::

    from repro.serve import ServeConfig, ServerThread, ServeClient
    with ServerThread(ServeConfig(shards=4)) as srv:
        with ServeClient(srv.base_url) as client:
            trace_id, _ = client.upload_trace(lines)
            job_id = client.analyze(trace_id)
            client.wait(job_id)
"""

from repro.serve.app import ServeConfig, TraceService
from repro.serve.client import ServeClient, error_from_body, read_trace_lines
from repro.serve.durable import ChunkStore, DurableLog, RecoveredState
from repro.serve.overload import AdmissionControl, backoff_delays
from repro.serve.server import ServerThread, TraceServer
from repro.serve.wal import WalRecord, WalWriter, read_wal
