"""The serve layer's write-ahead journal: ``taskgrind-serve-wal/1``.

Heavyweight analysis jobs outlive most process lifetimes (the paper's
100-1000x slowdowns make a crash *during* an upload the common case at
service scale), so every state transition the server would mind losing is
journaled here **before** the in-memory state machine commits it:

====================  =====================================================
record kind           payload
====================  =====================================================
``header``            ``{schema, version}`` — always record 0
``upload-created``    ``{trace_id}``
``chunk-accepted``    ``{trace_id, seq, kind, digest}`` — the chunk body
                      lives in the content-addressed chunk store under
                      ``digest`` and is made durable *before* this record
``upload-sealed``     ``{trace_id, content_hash, chunks}``
``job-enqueued``      ``{job_id, trace_id, content_hash, params}``
``job-terminal``      ``{job_id, state, result_digest | error}``
``clean-shutdown``    ``{}`` — a graceful drain's last word; recovery uses
                      its presence to distinguish clean restarts from
                      crashes
====================  =====================================================

Framing is exactly the ``taskgrind-trace/2`` chunk discipline
(:class:`repro.core.trace._ChunkWriter`): one JSON object per line with
``{seq, kind, crc, payload}``, CRC-32 over the canonical payload, dense
``seq``.  The reader therefore inherits the salvage contract the rest of
the repo already proves — **a recovered journal is a prefix**: a torn
trailing record (the half-line a dying writer leaves behind) is dropped,
and nothing after the first damaged line is trusted.  Recovered state may
lose work, it must never invent work.

Durability is governed by one knob, ``fsync_policy``:

* ``always`` — ``fsync`` after every record (default; a crash loses at
  most the record being written);
* ``interval`` — ``fsync`` every ``fsync_interval`` records (bounded
  loss, much cheaper on spinning media);
* ``never`` — flush to the OS only (survives process death, not power
  loss — the mode the unit tests run in).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import IO, List, Optional, Tuple

from repro.core.trace import _payload_crc, canonical_json
from repro.errors import StateDirError
from repro.faults.inject import get_injector
from repro.obs.metrics import get_registry

WAL_SCHEMA = "taskgrind-serve-wal/1"
WAL_VERSION = 1

FSYNC_POLICIES = ("always", "interval", "never")

_FAULTS = get_injector()


@dataclass
class WalRecord:
    """One validated journal record."""

    seq: int
    kind: str
    payload: dict


class WalWriter:
    """Appends CRC-framed records to an open journal stream.

    Thread-safe: upload handlers journal from the event loop while job
    executors journal terminal states from analysis threads.  ``freeze()``
    models SIGKILL — after it, every append is a silent no-op, exactly
    like a dead process (the chaos bench uses it to kill a server without
    letting in-flight work sneak a last record in).
    """

    def __init__(self, fh: IO[bytes], *, fsync_policy: str = "always",
                 fsync_interval: int = 16, start_seq: int = 0) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync_policy!r} "
                             f"(choose from {FSYNC_POLICIES})")
        self._fh = fh
        self._seq = start_seq
        self._lock = threading.Lock()
        self._policy = fsync_policy
        self._interval = max(1, fsync_interval)
        self._unsynced = 0
        self.frozen = False
        if start_seq == 0:
            self.append("header", {"schema": WAL_SCHEMA,
                                   "version": WAL_VERSION})

    @property
    def records(self) -> int:
        return self._seq

    def freeze(self) -> None:
        """Simulate process death: all further appends are dropped."""
        with self._lock:
            self.frozen = True

    def append(self, kind: str, payload: dict) -> None:
        """Journal one record (write-ahead: call BEFORE committing state)."""
        with self._lock:
            if self.frozen:
                return
            doc = {"seq": self._seq, "kind": kind,
                   "crc": _payload_crc(payload), "payload": payload}
            try:
                line = _FAULTS.on_wal_record(self._seq, canonical_json(doc))
            except Exception:
                # injected server death: nothing may journal after this
                self.frozen = True
                raise
            reg = get_registry()
            if line is None:
                # injected torn write: the half-line a dying writer leaves
                self._fh.write(b'{"seq": %d, "kind": "torn' % self._seq)
                self._fh.flush()
                self.frozen = True
                reg.counter("serve.wal.torn_writes").inc()
                return
            self._fh.write(line + b"\n")
            self._fh.flush()
            self._unsynced += 1
            if self._policy == "always" or (
                    self._policy == "interval"
                    and self._unsynced >= self._interval):
                os.fsync(self._fh.fileno())
                self._unsynced = 0
                reg.counter("serve.wal.fsyncs").inc()
            self._seq += 1
            reg.counter("serve.wal.records").inc()
            reg.counter("serve.wal.bytes").inc(len(line) + 1)

    def sync(self) -> None:
        """Force any interval-buffered records to disk."""
        with self._lock:
            if self.frozen or self._policy == "never":
                return
            if self._unsynced:
                os.fsync(self._fh.fileno())
                self._unsynced = 0
                get_registry().counter("serve.wal.fsyncs").inc()

    def close(self) -> None:
        with self._lock:
            if not self.frozen and self._policy != "never":
                try:
                    os.fsync(self._fh.fileno())
                except OSError:
                    pass
            try:
                self._fh.close()
            except OSError:
                pass
            self.frozen = True


def read_wal(path: str) -> Tuple[List[WalRecord], dict]:
    """Salvage-read a journal: the longest valid dense-``seq`` prefix.

    Returns ``(records, info)`` where ``info`` books what recovery wants
    to report: ``clean`` (a trailing ``clean-shutdown`` record was found),
    ``dropped`` (lines abandoned after the first damaged one — a torn
    trailing record counts), and ``errors`` (human-readable damage notes).

    Only a wrong *format* raises (:class:`~repro.errors.StateDirError`):
    a journal whose header declares a schema this build does not speak
    cannot be half-trusted.  Damage within a well-formed journal degrades
    to the prefix, never raises.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    records: List[WalRecord] = []
    info = {"clean": False, "dropped": 0, "errors": []}
    expected_seq = 0
    lines = [ln for ln in data.split(b"\n") if ln.strip()]
    for index, line in enumerate(lines):
        err: Optional[str] = None
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                err = "record line is not a JSON object"
            elif any(doc.get(k) is None
                     for k in ("seq", "kind", "crc", "payload")):
                err = "record envelope missing seq/kind/crc/payload"
            elif _payload_crc(doc["payload"]) != doc["crc"]:
                err = (f"checksum mismatch (stored {doc['crc']}, computed "
                       f"{_payload_crc(doc['payload'])})")
            elif doc["seq"] != expected_seq:
                err = (f"seq {doc['seq']} breaks the dense prefix "
                       f"(expected {expected_seq})")
        except json.JSONDecodeError as exc:
            err = f"undecodable record line: {exc.msg}"
        if err is not None:
            # prefix rule: nothing after the first damaged line is trusted
            info["dropped"] = len(lines) - index
            info["errors"].append(f"record line {index}: {err}")
            break
        if expected_seq == 0:
            if doc["kind"] != "header":
                raise StateDirError(
                    path, f"journal record 0 is {doc['kind']!r}, "
                          "not a header")
            schema = doc["payload"].get("schema")
            version = doc["payload"].get("version")
            if schema != WAL_SCHEMA or version != WAL_VERSION:
                raise StateDirError(
                    path, f"journal declares {schema!r} v{version!r}; "
                          f"this build speaks {WAL_SCHEMA} v{WAL_VERSION}")
        records.append(WalRecord(seq=doc["seq"], kind=doc["kind"],
                                 payload=doc["payload"]))
        expected_seq += 1
    if records and records[-1].kind == "clean-shutdown" \
            and not info["dropped"]:
        info["clean"] = True
    return records, info
