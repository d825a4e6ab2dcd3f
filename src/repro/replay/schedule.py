"""The ``taskgrind-schedule/1`` document: a pinned schedule, nothing more.

The stream uses the chunk framing of :mod:`repro.util.chunks` (one
checksummed JSON line per chunk, atomic save, the writer consults the
fault injector's trace-chunk hook) but the *content* is orders of
magnitude smaller than a trace's: no access trees, no byte ranges — only
what is needed to re-execute the same interleaving and prove it stayed
the same.

Chunk kinds, in stream order::

    header    schema/version + element counts (the loader's ground truth)
    program   how to re-create the run (program ref, nthreads, seed, opts)
    picks     scheduler decisions, thread id per slice, chunked
    segments  [thread, kind, virtual, vclock] per segment in creation order
    edges     [src, dst] per HB edge in creation order
    allocs    [seq, thread, size] per heap allocation in event order
    rng       draw-call count per named rng stream
    end       footer: total chunk count

Loading is **strict only** — there is deliberately no salvage reader.  A
trace missing its tail still describes real prefix evidence; a schedule
missing its tail would pin a *different execution* and silently change
every downstream verdict.  A first line that is not a chunk is a
``ScheduleFormatError``; any later framing failure, truncation, a payload
without the fields its kind needs (:data:`_FIELDS`), an element row of
another shape (:func:`_row_fits`), or a count mismatch is a
``ScheduleCorruptionError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import (ScheduleCorruptionError, ScheduleFormatError,
                          ScheduleVersionError)
from repro.faults.inject import get_injector
from repro.util.chunks import (ChunkError, ChunkWriter, chunk_lines,
                               decode_chunk, payload_problem, row_fits,
                               save_atomic, verify_crc)

SCHEDULE_SCHEMA = "taskgrind-schedule/1"
SCHEDULE_VERSION = 1

#: picks/edges/allocs per chunk (small ints), segments per chunk (wider rows)
CHUNK_PICKS = 4096
CHUNK_SEGMENTS = 1024

#: the element streams, each chunked as ``{start, <kind>: [...]}``
_ELEMENTS = ("picks", "segments", "edges", "allocs")

#: the payload fields each chunk kind needs, with the types they may have
_FIELDS = {
    "header": {"counts": (dict,), "final_vclock": (int, float)},
    **{kind: {"start": (int,), kind: (list,)} for kind in _ELEMENTS},
    "rng": {"draws": (dict,)},
}

#: the types of one element row's fields, per list-row element stream (a
#: pick is a bare int thread id)
_ROWS = {
    "segments": ((int,), (str,), (bool,), (int, float)),
    "edges": ((int,), (int,)),
    "allocs": ((int,), (int,), (int,)),
}


def _row_fits(kind: str, row) -> bool:
    """Whether one element row has the shape the recorder writes."""
    if kind == "picks":
        return type(row) is int
    return row_fits(row, _ROWS[kind])


@dataclass
class ScheduleDoc:
    """One recorded schedule, in memory."""

    #: how to re-create the run: ``{"kind": "bench"|"fuzz", ...}`` — bench
    #: refs carry the program name, fuzz refs embed the generated spec
    program: Dict = field(default_factory=dict)
    #: thread id per scheduler decision, in decision order
    picks: List[int] = field(default_factory=list)
    #: ``[thread_id, kind, virtual, vclock_ops]`` per segment, id order ==
    #: creation order (segment ids are dense)
    segments: List[list] = field(default_factory=list)
    #: ``[src_id, dst_id]`` per HB edge, in creation order
    edges: List[list] = field(default_factory=list)
    #: ``[seq, thread_id, size]`` per heap allocation, in event order
    allocs: List[list] = field(default_factory=list)
    #: draw-call count per named rng stream at end of recording
    rng_draws: Dict[str, int] = field(default_factory=dict)
    #: cost-model makespan at end of recording (the final vclock checkpoint)
    final_vclock: float = 0.0

    def counts(self) -> Dict[str, int]:
        return {"picks": len(self.picks), "segments": len(self.segments),
                "edges": len(self.edges), "allocs": len(self.allocs),
                "rng_streams": len(self.rng_draws)}

    def summary(self) -> str:
        c = self.counts()
        ref = self.program.get("name") or self.program.get("kind", "?")
        return (f"{ref}: {c['picks']} picks, {c['segments']} segments, "
                f"{c['edges']} edges, {c['allocs']} allocs, "
                f"final vclock {self.final_vclock:.0f} ops")

    # -- plain-data round trip (the fuzz two-phase oracle uses this to
    # prove the on-disk format loses nothing) -----------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEDULE_SCHEMA, "version": SCHEDULE_VERSION,
            "program": self.program, "picks": list(self.picks),
            "segments": [list(s) for s in self.segments],
            "edges": [list(e) for e in self.edges],
            "allocs": [list(a) for a in self.allocs],
            "rng_draws": dict(self.rng_draws),
            "final_vclock": self.final_vclock,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScheduleDoc":
        if doc.get("schema") != SCHEDULE_SCHEMA:
            raise ScheduleFormatError(
                "<dict>", f"schema {doc.get('schema')!r}")
        return cls(program=doc["program"], picks=list(doc["picks"]),
                   segments=[list(s) for s in doc["segments"]],
                   edges=[list(e) for e in doc["edges"]],
                   allocs=[list(a) for a in doc["allocs"]],
                   rng_draws=dict(doc["rng_draws"]),
                   final_vclock=doc["final_vclock"])


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------

def save_schedule(doc: ScheduleDoc, path: str) -> None:
    """Write ``doc`` atomically as a chunked ``taskgrind-schedule/1`` stream.

    The writer consults the trace-chunk fault hook, so armed fault plans
    (trace-truncate / trace-corrupt points) damage schedule saves exactly
    like trace saves — which the strict loader must then refuse, never
    half-replay.
    """
    def write(fh) -> None:
        writer = ChunkWriter(fh, get_injector().on_trace_chunk,
                             vtime=doc.final_vclock)
        writer.emit("header", {
            "schema": SCHEDULE_SCHEMA, "version": SCHEDULE_VERSION,
            "counts": doc.counts(),
            "final_vclock": doc.final_vclock})
        writer.emit("program", doc.program)
        for kind in _ELEMENTS:
            items = getattr(doc, kind)
            size = CHUNK_SEGMENTS if kind == "segments" else CHUNK_PICKS
            for base in range(0, len(items), size):
                writer.emit(kind, {"start": base,
                                   kind: items[base:base + size]})
        writer.emit("rng", {"draws": doc.rng_draws})
        writer.emit("end", {"chunks": writer.seq + 1})
    save_atomic(path, write)


# ---------------------------------------------------------------------------
# strict load
# ---------------------------------------------------------------------------

def load_schedule(path: str) -> ScheduleDoc:
    """Parse a schedule document, failing fast on any damage.

    Raises :class:`ScheduleFormatError` when the file is not a schedule,
    :class:`ScheduleVersionError` on a version this replayer does not
    speak, and :class:`ScheduleCorruptionError` on framing or checksum
    failures past the first line, truncation, out-of-order chunks,
    payloads without their kind's fields, element rows of another shape,
    or count mismatches.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ScheduleFormatError(path, str(exc)) from exc
    if not data.strip():
        raise ScheduleFormatError(path, "empty file")

    doc = ScheduleDoc()
    counts: Optional[Dict[str, int]] = None
    saw_end = False
    seq = -1
    for seq, (offset, line) in enumerate(chunk_lines(data)):
        def corrupt(reason: str) -> ScheduleCorruptionError:
            return ScheduleCorruptionError(path, byte_offset=offset,
                                           chunk_seq=seq, reason=reason)
        if saw_end:
            raise corrupt("data after the end chunk")
        try:
            chunk = decode_chunk(line)
            verify_crc(chunk)
        except ChunkError as exc:
            if seq == 0 and exc.check != "crc":
                raise ScheduleFormatError(path, f"first line: {exc}") from exc
            raise corrupt(str(exc)) from exc
        if chunk["seq"] != seq:
            raise corrupt(f"chunk sequence {chunk['seq']!r}, expected {seq} "
                          "(reordered or spliced stream)")
        kind, payload = chunk["kind"], chunk["payload"]
        if seq == 0:
            if kind != "header":
                raise ScheduleFormatError(
                    path, f"first chunk is {kind!r}, expected the schedule "
                          "header")
            schema = payload.get("schema")
            version = payload.get("version")
            if schema != SCHEDULE_SCHEMA or version != SCHEDULE_VERSION:
                raise ScheduleVersionError(
                    path, schema if schema != SCHEDULE_SCHEMA else version,
                    f"{SCHEDULE_SCHEMA} v{SCHEDULE_VERSION}")
        problem = payload_problem(payload, _FIELDS.get(kind, {}))
        if problem is not None:
            raise corrupt(f"{kind} chunk: {problem}")
        if seq == 0:
            counts = dict(payload["counts"])
            doc.final_vclock = payload["final_vclock"]
        elif kind == "program":
            doc.program = payload
        elif kind in _ELEMENTS:
            target = getattr(doc, kind)
            if payload["start"] != len(target):
                raise corrupt(f"chunk starts at element {payload['start']}, "
                              f"expected {len(target)} (missing or "
                              "duplicated chunk)")
            for k, row in enumerate(payload[kind]):
                if not _row_fits(kind, row):
                    raise corrupt(f"{kind} chunk: malformed element "
                                  f"{payload['start'] + k}: {row!r}")
            target.extend(payload[kind])
        elif kind == "rng":
            doc.rng_draws = dict(payload["draws"])
        elif kind == "end":
            saw_end = True
        else:
            raise corrupt(f"unknown chunk kind {kind!r}")

    if counts is None:
        raise ScheduleFormatError(path, "no schedule header chunk")
    if not saw_end:
        raise ScheduleCorruptionError(
            path, byte_offset=len(data), chunk_seq=seq + 1,
            reason="truncated: no end chunk")
    got = doc.counts()
    if got != counts:
        raise ScheduleCorruptionError(
            path, byte_offset=len(data), chunk_seq=seq + 1,
            reason=f"element counts {got} do not match the header "
                   f"{counts}")
    return doc
