"""Durable serve state: content-addressed chunk store + WAL recovery.

The division of labor mirrors Ronsse & De Bosschere's record/replay
insight: the journal (:mod:`repro.serve.wal`) durably records only the
cheap *ordering* events — upload created, chunk accepted, upload sealed,
job enqueued, job terminal — while everything bulky (chunk bodies, result
documents) lives in a content-addressed blob store and is referenced by
digest.  Restart recovery replays the journal and reconstructs the entire
serve state machine from those two ingredients.

Recovery contract (the PR 5 salvage guarantee, lifted to the service):
recovered state is a **prefix** of the crashed server's state — it may
*lose* the most recent work (the torn trailing record, an un-fsynced
tail) but it never *invents* work:

* a sealed upload whose ``upload-sealed`` record survived is recovered
  byte-exactly (every chunk body re-fetched by digest, content hash
  re-derived and cross-checked);
* a partial upload resumes at exactly the next journaled ``seq`` — the
  client reads it from ``GET /v1/traces/{id}`` and continues instead of
  re-uploading;
* a job with a ``job-terminal`` record keeps its byte-identical result
  document; a job enqueued but not terminal is re-enqueued **exactly
  once** (duplicate ``job-enqueued`` records — possible when a crash
  lands between journal append and queue push on a retried request — are
  idempotently collapsed by job id);
* a trailing ``clean-shutdown`` record marks a graceful drain; its
  absence marks a crash (``serve.recovery.crash`` vs ``.clean``).

On open, the journal is **compacted**: recovered live state is rewritten
as a fresh journal (atomic tmp+rename), so torn tails never accumulate
and journal length stays proportional to live state, not history.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.trace import canonical_json
from repro.errors import StateDirError
from repro.obs.metrics import get_registry
from repro.serve.wal import WalRecord, WalWriter, read_wal

WAL_NAME = "wal.jsonl"
CHUNKS_DIR = "chunks"


class ChunkStore:
    """Content-addressed blobs: ``chunks/<aa>/<sha256-hex>``.

    Bodies are written atomically (tmp + rename into the prefix dir) and
    fsynced before the journal record that references them — a digest in
    the journal therefore always resolves after a crash.  Identical
    bodies dedupe for free: a million uploads of the same trace cost one
    copy of each chunk.
    """

    def __init__(self, root: str, *, fsync: bool = True) -> None:
        self.root = root
        self._fsync = fsync
        os.makedirs(root, exist_ok=True)

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest)

    @staticmethod
    def digest_of(body: bytes) -> str:
        return hashlib.sha256(body).hexdigest()

    def has(self, digest: str) -> bool:
        return os.path.exists(self._path(digest))

    def put(self, body: bytes) -> str:
        """Store ``body``; returns its digest.  Idempotent."""
        digest = self.digest_of(body)
        path = self._path(digest)
        if os.path.exists(path):
            get_registry().counter("serve.chunkstore.dedup_hits").inc()
            return digest
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(body)
                fh.flush()
                if self._fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        get_registry().counter("serve.chunkstore.writes").inc()
        get_registry().counter("serve.chunkstore.bytes").inc(len(body))
        return digest

    def get(self, digest: str) -> Optional[bytes]:
        """The stored body, re-verified against its digest (None = lost)."""
        try:
            with open(self._path(digest), "rb") as fh:
                body = fh.read()
        except OSError:
            return None
        if self.digest_of(body) != digest:
            return None         # bit rot: treat as lost, never mis-serve
        return body


# ---------------------------------------------------------------------------
# recovered state
# ---------------------------------------------------------------------------

@dataclass
class RecoveredUpload:
    trace_id: str
    #: parsed chunk envelope docs, dense accepted order
    chunks: List[dict] = field(default_factory=list)
    #: each chunk's blob digest, parallel to ``chunks`` (what compaction
    #: re-journals)
    digests: List[str] = field(default_factory=list)
    #: total length of the stored bodies (rebuilds ``bytes_received``)
    body_bytes: int = 0
    sealed: bool = False
    #: content hash claimed by the seal record (cross-checked on restore)
    content_hash: Optional[str] = None
    #: True when a referenced chunk body was lost: the upload is frozen at
    #: its recovered prefix and later chunk-accepted records are ignored
    truncated: bool = False


@dataclass
class RecoveredJob:
    job_id: str
    trace_id: str
    content_hash: str
    params: dict
    #: terminal state, or None → re-enqueue exactly once
    state: Optional[str] = None
    result: Optional[dict] = None
    result_digest: Optional[str] = None
    error: Optional[dict] = None


@dataclass
class RecoveredState:
    uploads: Dict[str, RecoveredUpload] = field(default_factory=dict)
    jobs: Dict[str, RecoveredJob] = field(default_factory=dict)
    clean: bool = False
    dropped_records: int = 0
    errors: List[str] = field(default_factory=list)
    max_trace_num: int = 0
    max_job_num: int = 0

    @property
    def requeue_jobs(self) -> List[RecoveredJob]:
        """Jobs that were queued/running at death, in enqueue order."""
        return [j for j in self.jobs.values() if j.state is None]


def _id_num(resource_id: str) -> int:
    try:
        return int(resource_id[1:])
    except (ValueError, IndexError):
        return 0


def replay_wal(records: List[WalRecord], store: ChunkStore
               ) -> RecoveredState:
    """Fold a validated record prefix into recovered serve state."""
    st = RecoveredState()
    for rec in records:
        p = rec.payload
        if rec.kind == "header":
            continue
        if rec.kind == "upload-created":
            tid = p["trace_id"]
            st.uploads.setdefault(tid, RecoveredUpload(trace_id=tid))
            st.max_trace_num = max(st.max_trace_num, _id_num(tid))
        elif rec.kind == "chunk-accepted":
            up = st.uploads.get(p["trace_id"])
            if up is None or up.truncated or up.sealed:
                continue
            if p["seq"] != len(up.chunks):
                # duplicate record from a crash between journal append and
                # the in-memory commit: idempotently skip
                continue
            body = store.get(p["digest"])
            if body is None:
                up.truncated = True
                st.errors.append(
                    f"{p['trace_id']}: chunk {p['seq']} body "
                    f"{p['digest'][:12]}… lost; upload frozen at "
                    f"seq {len(up.chunks)}")
                continue
            try:
                doc = json.loads(body)
            except json.JSONDecodeError:
                up.truncated = True
                continue
            up.chunks.append(doc)
            up.digests.append(p["digest"])
            up.body_bytes += len(body)
        elif rec.kind == "upload-sealed":
            up = st.uploads.get(p["trace_id"])
            if up is None or up.truncated:
                continue
            if p.get("chunks") is not None \
                    and p["chunks"] != len(up.chunks):
                st.errors.append(
                    f"{p['trace_id']}: seal record claims {p['chunks']} "
                    f"chunks, {len(up.chunks)} recovered; not sealed")
                up.truncated = True
                continue
            up.sealed = True
            up.content_hash = p.get("content_hash")
        elif rec.kind == "job-enqueued":
            jid = p["job_id"]
            if jid in st.jobs:
                continue        # exactly-once: collapse duplicates
            st.jobs[jid] = RecoveredJob(
                job_id=jid, trace_id=p["trace_id"],
                content_hash=p["content_hash"],
                params=dict(p.get("params", {})))
            st.max_job_num = max(st.max_job_num, _id_num(jid))
        elif rec.kind == "job-terminal":
            job = st.jobs.get(p["job_id"])
            if job is None or job.state is not None:
                continue
            result = None
            digest = p.get("result_digest")
            if digest is not None:
                body = store.get(digest)
                if body is not None:
                    try:
                        result = json.loads(body)
                    except json.JSONDecodeError:
                        result = None
            if p["state"] in ("done", "degraded") and result is None:
                # terminal record without its result blob: the job reruns
                st.errors.append(
                    f"{p['job_id']}: terminal result blob lost; "
                    "job will re-execute")
                continue
            job.state = p["state"]
            job.result = result
            job.result_digest = digest
            job.error = p.get("error")
        elif rec.kind == "clean-shutdown":
            pass                # read_wal already booked it in info
    return st


# ---------------------------------------------------------------------------
# the durable log facade (what store.py / jobs.py / app.py journal into)
# ---------------------------------------------------------------------------

class DurableLog:
    """Owns one ``--state-dir``: journal + chunk store + recovery.

    Construction performs recovery: the existing journal (if any) is
    salvage-read, replayed into :class:`RecoveredState`, compacted into a
    fresh journal, and the writer is left open for appends.  Any
    structural failure — unwritable directory, foreign journal schema —
    raises :class:`~repro.errors.StateDirError`; a durable server must
    refuse to start rather than silently run in-memory.
    """

    def __init__(self, state_dir: str, *,
                 fsync_policy: str = "always") -> None:
        self.state_dir = state_dir
        self._policy = fsync_policy
        reg = get_registry()
        try:
            os.makedirs(state_dir, exist_ok=True)
            probe = os.path.join(state_dir, ".writable-probe")
            with open(probe, "w") as fh:
                fh.write("ok")
            os.unlink(probe)
        except OSError as exc:
            raise StateDirError(state_dir, f"not writable: {exc}") from exc
        self.chunks = ChunkStore(os.path.join(state_dir, CHUNKS_DIR),
                                 fsync=fsync_policy != "never")
        wal_path = os.path.join(state_dir, WAL_NAME)
        self.recovered = RecoveredState()
        if os.path.exists(wal_path):
            with reg.phase("serve.recovery"):
                records, info = read_wal(wal_path)
                self.recovered = replay_wal(records, self.chunks)
                self.recovered.clean = info["clean"]
                self.recovered.dropped_records = info["dropped"]
                self.recovered.errors.extend(info["errors"])
            reg.counter("serve.recovery.clean" if info["clean"]
                        else "serve.recovery.crash").inc()
            reg.counter("serve.recovery.uploads").inc(
                len(self.recovered.uploads))
            reg.counter("serve.recovery.sealed").inc(
                sum(1 for u in self.recovered.uploads.values() if u.sealed))
            reg.counter("serve.recovery.chunks").inc(
                sum(len(u.chunks) for u in self.recovered.uploads.values()))
            reg.counter("serve.recovery.jobs_terminal").inc(
                sum(1 for j in self.recovered.jobs.values()
                    if j.state is not None))
            reg.counter("serve.recovery.jobs_requeued").inc(
                len(self.recovered.requeue_jobs))
            reg.counter("serve.recovery.torn_records_dropped").inc(
                self.recovered.dropped_records)
        self._writer = self._compact(wal_path, self.recovered)

    # -- compaction ----------------------------------------------------------

    def _compact(self, wal_path: str, st: RecoveredState) -> WalWriter:
        """Rewrite live state as a fresh journal; atomic swap; open it."""
        tmp = wal_path + ".tmp"
        fh = open(tmp, "wb")
        writer = WalWriter(fh, fsync_policy=self._policy)
        try:
            for up in st.uploads.values():
                writer.append("upload-created", {"trace_id": up.trace_id})
                for seq, (doc, digest) in enumerate(zip(up.chunks,
                                                        up.digests)):
                    # replay just read this blob: the digest resolves
                    writer.append("chunk-accepted", {
                        "trace_id": up.trace_id, "seq": seq,
                        "kind": doc.get("kind"), "digest": digest})
                if up.sealed:
                    writer.append("upload-sealed", {
                        "trace_id": up.trace_id,
                        "content_hash": up.content_hash,
                        "chunks": len(up.chunks)})
            for job in st.jobs.values():
                writer.append("job-enqueued", {
                    "job_id": job.job_id, "trace_id": job.trace_id,
                    "content_hash": job.content_hash,
                    "params": job.params})
                if job.state is not None:
                    terminal: dict = {"job_id": job.job_id,
                                      "state": job.state}
                    if job.result_digest is not None:
                        terminal["result_digest"] = job.result_digest
                    if job.error is not None:
                        terminal["error"] = job.error
                    writer.append("job-terminal", terminal)
            writer.sync()
            os.replace(tmp, wal_path)
        except StateDirError:
            raise
        except OSError as exc:
            raise StateDirError(self.state_dir,
                                f"journal compaction failed: {exc}") from exc
        return writer

    # -- journaling API (write-ahead: call BEFORE committing state) ----------

    def upload_created(self, trace_id: str) -> None:
        self._writer.append("upload-created", {"trace_id": trace_id})

    def chunk_accepted(self, trace_id: str, seq: int, kind: str,
                       body: bytes) -> None:
        """Durably store the chunk body as received, then journal its
        acceptance."""
        digest = self.chunks.put(body)
        self._writer.append("chunk-accepted", {
            "trace_id": trace_id, "seq": seq, "kind": kind,
            "digest": digest})

    def upload_sealed(self, trace_id: str, content_hash: str,
                      chunks: int) -> None:
        self._writer.append("upload-sealed", {
            "trace_id": trace_id, "content_hash": content_hash,
            "chunks": chunks})

    def job_enqueued(self, job_id: str, trace_id: str, content_hash: str,
                     params: dict) -> None:
        self._writer.append("job-enqueued", {
            "job_id": job_id, "trace_id": trace_id,
            "content_hash": content_hash, "params": params})

    def job_terminal(self, job_id: str, state: str, *,
                     result: Optional[dict] = None,
                     error: Optional[dict] = None) -> None:
        doc: dict = {"job_id": job_id, "state": state}
        if result is not None:
            doc["result_digest"] = self.chunks.put(canonical_json(result))
        if error is not None:
            doc["error"] = error
        self._writer.append("job-terminal", doc)

    def clean_shutdown(self) -> None:
        self._writer.append("clean-shutdown", {})
        self._writer.sync()

    # -- lifecycle -----------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._writer.frozen

    def freeze(self) -> None:
        """SIGKILL simulation: nothing journals after this."""
        self._writer.freeze()

    def close(self) -> None:
        self._writer.close()
