"""Upload state machine: chunked traces arriving over the wire.

One :class:`TraceUpload` per ``POST /v1/traces``; each ``PUT .../chunks/{seq}``
body is validated *at the edge* before it is accepted:

* the line must pass the chunk envelope check (:mod:`repro.util.chunks`)
  (→ :class:`~repro.errors.TraceFormatError`, 400);
* ``seq`` must equal the next expected sequence number — the
  ``taskgrind-trace/3`` salvage contract only covers a **dense prefix**, so
  gaps and post-``end`` uploads are refused outright
  (→ :class:`~repro.errors.UploadSequenceError`, 409).  A **re-PUT of an
  already-accepted seq with the identical CRC** is a 200 no-op instead —
  a client that crashed after the server accepted but before the ack
  arrived resumes by resending, and idempotence makes that safe; only a
  *different* body under an old seq is a 409 conflict;
* the payload CRC-32 must match the envelope's claim
  (:func:`~repro.util.chunks.verify_crc`,
  → :class:`~repro.errors.TraceCorruptionError`, 422), and the payload
  bytes it covered feed the content hash;
* chunk 0 must be a ``header`` declaring the trace version this reader
  speaks (→ :class:`~repro.errors.TraceVersionError`, 400).

Accepted chunks feed a running SHA-256 over the payload bytes their CRC
covered — the **content hash** that keys the service's result memo.  Two
clients uploading the same logical trace (even with different envelope
whitespace or key order) land on the same hash, so analyzing either with
the same options serves one stored report.

When the service runs with ``--state-dir``, every accept is journaled
into the :class:`~repro.serve.durable.DurableLog` **before** the
in-memory commit (the chunk body as received to the content-addressed
store, then the ``chunk-accepted`` record), so
:meth:`TraceStore.restore` can rebuild uploads after a crash: sealed
uploads reappear complete, partial uploads resume at the exact journaled
``next_seq``.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.trace import TRACE_VERSION
from repro.errors import (ResourceNotFound, TraceCorruptionError,
                          TraceFormatError, TraceVersionError,
                          UploadSequenceError)
from repro.faults.inject import get_injector
from repro.obs.metrics import get_registry
from repro.util.chunks import ChunkError, decode_chunk, verify_crc

_FAULTS = get_injector()

#: upload lifecycle states
OPEN = "open"
COMPLETE = "complete"


@dataclass
class TraceUpload:
    """One trace being streamed in, chunk by chunk."""

    trace_id: str
    state: str = OPEN
    next_seq: int = 0
    chunks: List[dict] = field(default_factory=list)
    bytes_received: int = 0
    #: True when this upload was rebuilt from the journal after a restart
    recovered: bool = False
    _hasher: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def content_hash(self) -> str:
        """SHA-256 over the payload bytes accepted so far."""
        return self._hasher.hexdigest()

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "state": self.state,
            "chunks_accepted": len(self.chunks),
            "next_seq": self.next_seq,
            "bytes_received": self.bytes_received,
            "content_hash": self.content_hash,
            "recovered": self.recovered,
        }


class TraceStore:
    """All live uploads, behind one lock (handlers run on the event loop,
    but the job executor threads read finished uploads too)."""

    def __init__(self, durable=None) -> None:
        self._lock = threading.Lock()
        self._uploads: Dict[str, TraceUpload] = {}
        self._next_id = 0
        self._durable = durable

    def create(self) -> TraceUpload:
        with self._lock:
            self._next_id += 1
            up = TraceUpload(trace_id=f"t{self._next_id}")
            if self._durable is not None:
                # write-ahead: the id is journaled before the client can
                # ever see it, so a recovered server never re-issues it
                self._durable.upload_created(up.trace_id)
            self._uploads[up.trace_id] = up
        get_registry().counter("serve.traces.created").inc()
        return up

    def get(self, trace_id: str) -> TraceUpload:
        with self._lock:
            up = self._uploads.get(trace_id)
        if up is None:
            raise ResourceNotFound("trace", trace_id)
        return up

    def open_bytes(self) -> int:
        """Bytes held by in-flight (non-complete) uploads — the admission
        controller's measure of ingest memory pressure."""
        with self._lock:
            return sum(u.bytes_received for u in self._uploads.values()
                       if u.state == OPEN)

    def add_chunk(self, trace_id: str, url_seq: int, body: bytes) -> dict:
        """Validate + accept one uploaded chunk; returns the ack doc.

        Raises the :mod:`repro.errors` taxonomy on any defect; a rejected
        chunk contributes nothing to the upload's state or content hash,
        so the client can retry the same ``seq`` after a transient fault.
        """
        up = self.get(trace_id)
        reg = get_registry()
        body = _FAULTS.on_upload_chunk(url_seq, body)
        try:
            doc = decode_chunk(body)
        except ChunkError as exc:
            raise TraceFormatError(trace_id, str(exc)) from exc
        if doc["seq"] != url_seq:
            raise UploadSequenceError(
                trace_id, expected_seq=up.next_seq, got_seq=url_seq,
                reason=f"URL seq {url_seq} != envelope seq {doc['seq']}")
        if url_seq < up.next_seq:
            # idempotent re-PUT: a resuming client may resend a chunk whose
            # ack it never saw.  Identical CRC → the accepted state already
            # contains this exact chunk, so acknowledge it again (no-op);
            # a different CRC is a genuine conflict.
            if up.chunks[url_seq]["crc"] == doc["crc"]:
                reg.counter("serve.ingest.duplicate_acks").inc()
                return {"trace_id": trace_id, "seq": url_seq,
                        "accepted": True, "duplicate": True,
                        "state": up.state, "next_seq": up.next_seq,
                        "content_hash": up.content_hash}
            raise UploadSequenceError(
                trace_id, expected_seq=up.next_seq, got_seq=url_seq,
                reason="duplicate seq with different content "
                       f"(accepted crc {up.chunks[url_seq]['crc']}, "
                       f"re-PUT crc {doc['crc']})")
        if up.state == COMPLETE:
            raise UploadSequenceError(
                trace_id, expected_seq=None, got_seq=url_seq,
                reason="trace already complete (end chunk accepted)")
        if url_seq != up.next_seq:
            raise UploadSequenceError(
                trace_id, expected_seq=up.next_seq, got_seq=url_seq,
                reason="out-of-order chunk (dense prefix required)")
        try:
            payload = verify_crc(doc, body)
        except ChunkError as exc:
            reg.counter("serve.ingest.crc_rejects").inc()
            raise TraceCorruptionError(
                trace_id, byte_offset=up.bytes_received, chunk_seq=url_seq,
                reason=str(exc)) from exc
        if url_seq == 0:
            if doc["kind"] != "header":
                raise TraceFormatError(
                    trace_id, f"chunk 0 must be a header, got "
                              f"{doc['kind']!r}")
            # the version rides on the header *envelope* (writer extras)
            if doc.get("version") != TRACE_VERSION:
                raise TraceVersionError(trace_id, doc.get("version"),
                                        f"version {TRACE_VERSION}")
        with self._lock:
            # revalidate under the lock: two in-flight uploads of the same
            # seq must resolve to exactly one accept
            if up.state == COMPLETE or url_seq != up.next_seq:
                raise UploadSequenceError(
                    trace_id, expected_seq=up.next_seq, got_seq=url_seq,
                    reason="lost the accept race for this seq")
            if self._durable is not None:
                # write-ahead: body into the chunk store + journal record
                # BEFORE the in-memory commit.  A crash between the two
                # leaves a journaled chunk the memory never saw — recovery
                # replays it, the resuming client gets a duplicate ack.
                self._durable.chunk_accepted(trace_id, url_seq,
                                             doc["kind"], body)
            up.chunks.append(doc)
            up.next_seq += 1
            up.bytes_received += len(body)
            up._hasher.update(f"{url_seq}|{doc['kind']}|".encode())
            up._hasher.update(payload)
            if doc["kind"] == "end":
                up.state = COMPLETE
                if self._durable is not None:
                    self._durable.upload_sealed(trace_id, up.content_hash,
                                                len(up.chunks))
        reg.counter("serve.ingest.chunks").inc()
        reg.counter("serve.ingest.bytes").inc(len(body))
        return {"trace_id": trace_id, "seq": url_seq, "accepted": True,
                "state": up.state, "next_seq": up.next_seq,
                "content_hash": up.content_hash}

    # -- crash recovery ------------------------------------------------------

    def restore(self, recovered) -> None:
        """Rebuild uploads from a :class:`~repro.serve.durable.RecoveredState`.

        Each recovered upload's chunks are re-fed through the same
        SHA-256 discipline as live accepts (the payload bytes the CRC
        check covered in the journaled body), so the content hash — and
        therefore memo keys and report bytes — is identical across the
        restart, and ``bytes_received`` is the journaled bodies' length,
        the bytes the server had received.  A seal record's claimed hash
        is cross-checked; on mismatch the upload is left OPEN (the client
        must finish or re-upload it) rather than serving analysis of
        dubious bytes.
        """
        reg = get_registry()
        with self._lock:
            for rec in recovered.uploads.values():
                up = TraceUpload(trace_id=rec.trace_id, recovered=True,
                                 bytes_received=rec.body_bytes)
                for seq, (doc, payload) in enumerate(zip(rec.chunks,
                                                         rec.payloads)):
                    up.chunks.append(doc)
                    up.next_seq += 1
                    up._hasher.update(f"{seq}|{doc['kind']}|".encode())
                    up._hasher.update(payload)
                ends = bool(rec.chunks) and rec.chunks[-1]["kind"] == "end"
                if rec.sealed and rec.content_hash is not None \
                        and rec.content_hash != up.content_hash:
                    reg.counter("serve.recovery.hash_mismatches").inc()
                elif rec.sealed or ends:
                    up.state = COMPLETE
                self._uploads[up.trace_id] = up
            self._next_id = max(self._next_id, recovered.max_trace_num)
