"""The chunk framing every checksummed JSONL stream shares.

Traces, schedules, profiles, trace chunks uploaded to the serve edge and
the serve journal are all one JSON object per line::

    {"seq": <int>, "kind": <str>, "crc": <int>, "payload": {...},
     "vtime": <number, optional>, ...writer extras}

with ``crc`` the CRC-32 of the payload's canonical encoding, so envelope
whitespace and key order never change it.  :func:`verify_crc` checks a
line in the writer's canonical form over its payload bytes as written, so
a *foreign* line (a canonical envelope around other payload bytes, its CRC
over those bytes) passes too; no writer here emits one.  This module owns
the framing; what a reader does with a damaged chunk (skip it, cut the
stream there, raise, answer 400 or 422) is the reader's policy.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from typing import IO, Callable, Dict, Iterator, Optional, Tuple

#: envelope field -> (the type it must have, how an error names that type)
_ENVELOPE = {"seq": (int, "an int"), "kind": (str, "a string"),
             "crc": (int, "an int"), "payload": (dict, "an object")}

_FLOAT_MAX = sys.float_info.max

#: an envelope encoded with the payload ``0`` holds this text where the
#: payload goes; one holding it more than once takes the re-encode path
_PAYLOAD_KEY = b'"payload":'
_PAYLOAD_MARK = _PAYLOAD_KEY + b"0"


def canonical_json(doc) -> bytes:
    """The canonical encoding: sorted keys, compact separators, UTF-8.
    Chunk CRCs, the serve layer's content hash and its result blobs are
    computed over this form."""
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_crc(payload) -> int:
    """CRC-32 over the canonical payload JSON."""
    return zlib.crc32(canonical_json(payload)) & 0xFFFFFFFF


class ChunkError(ValueError):
    """A chunk line failed one framing check: ``check`` is ``"json"``,
    ``"envelope"`` or ``"crc"``.  ``doc`` is the line parsed, when it
    parsed, and ``seq`` its ``seq`` when that is an int."""

    def __init__(self, check: str, reason: str, doc=None) -> None:
        super().__init__(reason)
        self.check = check
        self.doc = doc
        seq = doc.get("seq") if isinstance(doc, dict) else None
        self.seq = seq if type(seq) is int else None


def decode_chunk(line: bytes) -> dict:
    """Parse one chunk line and check its envelope (not yet its CRC, so a
    reader can check ``seq`` first); raises :class:`ChunkError`."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ChunkError("json", f"undecodable chunk line: {exc}") from None
    if not isinstance(doc, dict):
        raise ChunkError("envelope", "chunk line is not a JSON object", doc)
    for key, (want, name) in _ENVELOPE.items():
        if type(doc.get(key)) is not want:
            what = f"not {name}" if key in doc else "missing"
            raise ChunkError("envelope", f"chunk envelope: {key} is {what}",
                             doc)
    vtime = doc.get("vtime", 0.0)
    if type(vtime) not in (int, float) \
            or not -_FLOAT_MAX <= vtime <= _FLOAT_MAX:
        raise ChunkError("envelope",
                         "chunk envelope: vtime is not a finite number", doc)
    return doc


def verify_crc(doc: dict, line: bytes) -> bytes:
    """Check the CRC of ``doc``, decoded from ``line``; returns the payload
    bytes it covers.  A line that is the envelope's canonical encoding with
    one span in the payload's place is checked over that span; any other,
    or a failing span, over the payload re-encoded canonically.  Raises
    :class:`ChunkError`."""
    head, _, tail = canonical_json({**doc, "payload": 0}).partition(
        _PAYLOAD_MARK)
    head += _PAYLOAD_KEY
    if _PAYLOAD_MARK not in tail and len(line) > len(head) + len(tail) \
            and line.startswith(head) and line.endswith(tail):
        span = line[len(head):len(line) - len(tail)]
        if zlib.crc32(span) & 0xFFFFFFFF == doc["crc"]:
            return span
    canon = canonical_json(doc["payload"])
    computed = zlib.crc32(canon) & 0xFFFFFFFF
    if computed != doc["crc"]:
        raise ChunkError("crc", f"checksum mismatch (stored {doc['crc']}, "
                                f"computed {computed})", doc)
    return canon


def payload_problem(payload: dict, fields: Dict[str, tuple]
                    ) -> Optional[str]:
    """What is wrong with ``payload`` against ``fields`` (name -> the
    types the field may have; list ``type(None)`` to make one optional),
    or ``None`` when every field fits."""
    for name, types in fields.items():
        value = payload.get(name)
        if type(value) not in types:
            what = "is missing" if name not in payload \
                else f"has type {type(value).__name__}"
            return f"payload field {name!r} {what}"
    return None


def row_fits(row, shape: tuple) -> bool:
    """Whether ``row`` is a list of ``len(shape)`` values, each of an exact
    type its ``shape`` entry lists (so a bool is not an int here): the
    check a reader makes on the rows inside a payload's lists."""
    return type(row) is list and len(row) == len(shape) \
        and all(type(v) in types for v, types in zip(row, shape))


def chunk_lines(data: bytes) -> Iterator[Tuple[int, bytes]]:
    """``(byte offset, stripped line)`` for each non-blank line."""
    offset = 0
    for raw in data.split(b"\n"):
        line = raw.strip()
        if line:
            yield offset, line
        offset += len(raw) + 1


class ChunkWriter:
    """Writes chunk lines to ``fh``, flushing each, with dense ``seq``.

    Each line goes through ``hook(seq, line)`` first (the fault
    injector's ``on_trace_chunk`` or ``on_wal_record``), which returns the
    line to write, possibly corrupted, or ``None`` for a torn write: the
    writer then leaves the half-line a dying writer would and writes
    nothing more (``torn``).  ``vtime``, unless ``None``, is stamped on
    every chunk.
    """

    def __init__(self, fh: IO[bytes], hook: Optional[Callable] = None, *,
                 vtime: Optional[float] = None) -> None:
        self._fh = fh
        self._hook = hook
        self.vtime = vtime
        self.seq = 0            # the next chunk's: the chunks written
        self.torn = False

    def emit(self, kind: str, payload: dict, **extra) -> int:
        """Write one chunk; returns the bytes written (0 once torn)."""
        if self.torn:
            return 0
        doc = {"seq": self.seq, "kind": kind, "crc": payload_crc(payload),
               "payload": payload, **extra}
        if self.vtime is not None:
            doc["vtime"] = self.vtime
        line = canonical_json(doc)
        if self._hook is not None:
            line = self._hook(self.seq, line)
        if line is None:
            self._fh.write(b'{"seq": %d, "kind": "torn' % self.seq)
            self._fh.flush()
            self.torn = True
            return 0
        self._fh.write(line + b"\n")
        self._fh.flush()
        self.seq += 1
        return len(line) + 1


def save_atomic(path: str, write: Callable[[IO[bytes]], None]) -> None:
    """Run ``write`` on ``path + ".tmp"``, renamed into place once it
    returns: an interrupted save leaves no half-written ``path``, and a
    file already there survives it."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
