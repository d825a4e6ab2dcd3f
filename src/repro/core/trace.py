"""Trace export + offline determinacy-race analysis.

The paper's Section VII: *"The determinacy race post-processing analysis is
an embarrassingly parallel algorithm, but it is currently run sequentially
within the Valgrind framework after the instrumented program execution."*
The natural fix is to externalize it: dump the segment graph (with each
segment's read and write interval lists and the suppression metadata) at
program exit and run Algorithm 1 offline — with one worker or several, or
on another machine entirely.

This module implements that pipeline:

* :func:`save_trace` — serialize a finished run to the chunked,
  per-chunk-checksummed ``taskgrind-trace/2`` stream;
* :func:`load_trace` — the strict reader: raises the :mod:`repro.errors`
  trace taxonomy on any damage;
* :func:`load_trace_salvaged` — the crash-tolerant reader: recovers the
  longest valid prefix of a truncated or corrupted trace and reports what
  was lost in a :class:`TraceCoverage` block instead of raising;
* :func:`analyze_trace` — run Algorithm 1 + suppressions offline.

Trace format (version 2)
------------------------
One JSON object per line.  Line 0 is the header chunk (declares totals);
then ``segments`` chunks (``chunk_segments`` graph nodes each, ids dense
and in order, each with the edges whose highest-id endpoint it holds),
one ``environment``, one ``suppression``, an optional ``stats`` chunk, and
an ``end`` footer.  The framing is :mod:`repro.util.chunks`'s, each line
stamped with the cost-model virtual time at write, so the salvage reader
can checksum each chunk independently (skipping a line that fails) and
report the last good vtime of a torn stream.  Any other format — such as
a version-1 single-document
trace — is rejected with a :class:`~repro.errors.TraceVersionError`
naming the version found.

CLI: ``python -m repro.core.offline <trace.json> [--workers N]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, List, Optional, Tuple

from repro.core.analysis import Detection, analyze_and_suppress
from repro.core.reports import RaceReport
from repro.core.segments import (_NO_ACCESSES, Segment, SegmentGraph,
                                 kahn_order)
from repro.core.suppress import SuppressionConfig, SuppressionEngine
from repro.errors import (TraceCorruptionError, TraceFormatError,
                          TraceVersionError)
from repro.faults.inject import get_injector
from repro.machine.allocator import AllocationBlock, Allocator
from repro.machine.debuginfo import SourceLocation
from repro.machine.memory import HEAP_BASE, AddressSpace, Region, RegionKind
from repro.machine.tls import TlsSnapshot
from repro.obs.metrics import get_registry
from repro.util.chunks import (ChunkError, ChunkWriter, chunk_lines,
                               decode_chunk, row_fits, save_atomic,
                               verify_crc)
from repro.util.intervals import IntervalSet

TRACE_VERSION = 2
TRACE_SCHEMA = "taskgrind-trace/2"

#: graph nodes per ``segments`` chunk — small enough that one corrupt chunk
#: costs a bounded slice of the run, large enough that chunk framing stays
#: a rounding error of the document size
DEFAULT_CHUNK_SEGMENTS = 256


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _loc_to_list(loc: Optional[SourceLocation]):
    if loc is None:
        return None
    return [loc.file, loc.line, loc.function]


def _seg_to_dict(seg) -> dict:
    snap = seg.tls_snapshot
    return {
        "id": seg.id,
        "thread": seg.thread_id,
        "kind": seg.kind,
        "virtual": seg.virtual,
        "label_loc": _loc_to_list(seg.label_loc),
        "label": seg.label(),
        "sp_at_start": seg.sp_at_start,
        "stack_bounds": list(seg.stack_bounds),
        "reads": seg.reads.pairs(),
        "writes": seg.writes.pairs(),
        "loc_samples": [[lo, hi, w, _loc_to_list(loc)]
                        for lo, hi, w, loc in seg.loc_samples],
        "tls": None if snap is None else {
            "thread": snap.thread_id, "tcb": snap.tcb,
            "generation": snap.generation,
            "dtv": [list(entry) for entry in snap.dtv],
        },
    }


def dump_graph(graph: SegmentGraph) -> dict:
    """The segment graph as plain data."""
    segments = [_seg_to_dict(seg) for seg in graph.segments]
    edges = [[sid, dst] for sid, succs in enumerate(graph._succ)
             for dst in succs]
    return {"segments": segments, "edges": edges}


def dump_environment(machine) -> dict:
    """Regions + allocation records the suppressions/reports consume."""
    regions = [{
        "name": r.name, "base": r.base, "size": r.size,
        "kind": r.kind.value, "owner": r.owner_thread,
    } for r in machine.space.regions]
    blocks = [{
        "addr": b.addr, "size": b.size, "req_size": b.req_size,
        "seq": b.seq, "site": _loc_to_list(b.alloc_site),
        "stack": [_loc_to_list(loc) for loc in b.alloc_stack],
        "freed": b.freed, "retained": b.retained,
    } for b in machine.allocator.all_blocks]
    return {"regions": regions, "blocks": blocks}


def save_trace(tool, machine, path: str, *,
               chunk_segments: int = DEFAULT_CHUNK_SEGMENTS) -> None:
    """Serialize a Taskgrind run for offline analysis, atomically
    (:func:`~repro.util.chunks.save_atomic`): an interrupted save never
    leaves a half-written ``path``, and a trace already there survives.

    The document embeds the recording run's stats block (when the tool
    provides one), so offline analysis can report the *record* phase —
    including its cost-model virtual time — next to its own phases.
    """
    save_atomic(path, lambda fh: _write_v2(tool, machine, fh,
                                           chunk_segments=chunk_segments))


def _supp_flags(tool) -> dict:
    return {
        "suppress_tls": tool.options.suppression.suppress_tls,
        "suppress_stack": tool.options.suppression.suppress_stack,
    }


def _write_v2(tool, machine, fh: IO[bytes], *,
              chunk_segments: int = DEFAULT_CHUNK_SEGMENTS) -> None:
    data = dump_graph(tool.builder.graph)
    segments, edges = data["segments"], data["edges"]
    # each edge travels with the chunk of its HIGHEST-id endpoint: any
    # contiguous segment prefix then carries the *complete* happens-before
    # relation among its segments.  A salvage that recovered segments
    # without their orderings would see everything as concurrent and
    # invent races — losing an edge must always lose an endpoint with it.
    edges_by_chunk: dict = {}
    for src, dst in edges:
        edges_by_chunk.setdefault(max(src, dst) // chunk_segments,
                                  []).append([src, dst])
    vtime = float(machine.cost.vtime_ops) \
        if hasattr(machine, "cost") else 0.0
    w = ChunkWriter(fh, get_injector().on_trace_chunk, vtime=vtime)
    w.emit("header", {
        "segments": len(segments),
        "edges": len(edges),
        "chunk_segments": chunk_segments,
    }, schema=TRACE_SCHEMA, version=TRACE_VERSION)
    for index, start in enumerate(range(0, len(segments), chunk_segments)):
        batch = segments[start:start + chunk_segments]
        w.emit("segments", {"start": start, "segments": batch,
                            "edges": edges_by_chunk.get(index, [])})
    w.emit("environment", dump_environment(machine))
    w.emit("suppression", _supp_flags(tool))
    if hasattr(tool, "stats"):
        w.emit("stats", tool.stats())
    w.emit("end", {"chunks": w.seq})


# ---------------------------------------------------------------------------
# deserialization
# ---------------------------------------------------------------------------

#: exclusive bound on a stored address: the analysis pools addresses as int64
_ADDR_LIMIT = 1 << 63

_LOC_ROW = ((str,), (int,), (str,))
_INT3 = ((int,),) * 3

# Locations and TLS snapshots are frozen, so a load shares one object per
# distinct value and checks each the first time it is read (a value equal
# to one already read shares it: JSON's true and 1.0 equal 1).  Their keys
# must hash, so a list where the writer puts a scalar fails the lookup.


def _location(data, interned: dict) -> Optional[SourceLocation]:
    """A stored ``None`` or ``[file, line, function]`` of types ``[str,
    int, str]``.  Raises ``TypeError`` or ``ValueError``."""
    if data is None:
        return None
    key = tuple(data)
    loc = interned.get(key)
    if loc is None:
        if not row_fits(data, _LOC_ROW):
            raise ValueError(f"location {data!r} is not [str, int, str]")
        loc = interned[key] = SourceLocation(*key)
    return loc


def _tls_snapshot(t, interned: dict) -> Optional[TlsSnapshot]:
    """A stored ``None`` or snapshot with int ``thread``, ``tcb`` and
    ``generation`` and ``[int, int, int]`` dtv entries.  Raises
    ``LookupError``, ``TypeError`` or ``ValueError``."""
    if t is None:
        return None
    key = (t["thread"], t["tcb"], t["generation"],
           tuple(map(tuple, t["dtv"])))
    snap = interned.get(key)
    if snap is None:
        if not (row_fits(list(key[:3]), _INT3) and type(t["dtv"]) is list
                and all(row_fits(entry, _INT3) for entry in t["dtv"])):
            raise ValueError(f"tls snapshot {t!r} is not the writer's")
        snap = interned[key] = TlsSnapshot(*key)
    return snap


def _interval_set(pairs) -> IntervalSet:
    """Adopt a stored interval list after one linear check that it is what
    the writer emits: a list of int pairs with ``0 <= lo < hi < 2**63``,
    ascending, disjoint and non-adjacent.  Every empty list shares one
    empty set.  Raises ``ValueError`` or ``TypeError``."""
    if type(pairs) is not list:
        raise ValueError(f"interval list {pairs!r} is not a list")
    if not pairs:
        return _NO_ACCESSES
    los: List[int] = []
    his: List[int] = []
    prev_hi = -1
    for lo, hi in pairs:
        if type(lo) is not int or type(hi) is not int \
                or not prev_hi < lo < hi < _ADDR_LIMIT:
            raise ValueError(f"interval {[lo, hi]!r} is not canonical after "
                             f"end {prev_hi}")
        los.append(lo)
        his.append(hi)
        prev_hi = hi
    out = IntervalSet.__new__(IntervalSet)      # adopts, builds nothing
    out._los, out._his = los, his
    return out


def _samples(rows, locs: dict) -> list:
    """A segment's stored location samples, after checking each row is the
    writer's ``[int, int, bool, location]``.  Raises ``TypeError`` or
    ``ValueError``."""
    out = []
    for lo, hi, w, loc in rows:
        if type(lo) is not int or type(hi) is not int or type(w) is not bool:
            raise ValueError(f"location sample {[lo, hi, w, loc]!r} is not "
                             "[int, int, bool, location]")
        out.append((lo, hi, w, _location(loc, locs)))
    return out


def _decode_segments(stored, start: int, locs: dict, snaps: dict
                     ) -> Tuple[List[Segment], Optional[Exception]]:
    """One segment chunk's stored segments, ids from ``start``, decoded up
    to the first malformed one, and the error that stopped there (``None``
    when all decoded).  Every field must have the writer's type: int
    ``thread`` and ``sp_at_start``, str ``kind`` and ``label``, bool
    ``virtual``, ``[int, int]`` ``stack_bounds`` (a bool is no int).
    ``locs`` and ``snaps`` intern the load's values."""
    out: List[Segment] = []
    try:
        for sd in stored:
            sid = start + len(out)
            if sd["id"] != sid:
                raise ValueError(f"segment id {sd['id']!r} where {sid} was "
                                 "due: trace ids must be dense and ordered")
            thread, kind, virtual = sd["thread"], sd["kind"], sd["virtual"]
            sp, label = sd["sp_at_start"], sd["label"]
            stack_lo, stack_hi = sd["stack_bounds"]
            if type(thread) is not int or type(kind) is not str \
                    or type(virtual) is not bool or type(sp) is not int \
                    or type(stack_lo) is not int \
                    or type(stack_hi) is not int or type(label) is not str:
                raise ValueError(f"segment {sid}: a field is not of the "
                                 "writer's type")
            seg = Segment(sid, thread, None, kind, virtual=virtual,
                          sp_at_start=sp, stack_bounds=(stack_lo, stack_hi),
                          label_loc=_location(sd["label_loc"], locs))
            seg.saved_label = label
            seg.open = False
            seg._reads = _interval_set(sd["reads"])
            seg._writes = _interval_set(sd["writes"])
            seg.loc_samples = _samples(sd["loc_samples"], locs)
            seg.tls_snapshot = _tls_snapshot(sd["tls"], snaps)
            out.append(seg)
    except (LookupError, TypeError, ValueError) as exc:
        return out, exc
    return out, None


def _edge_pairs(stored, end: int) -> List[Tuple[int, int]]:
    """A chunk's stored edges as ``(src, dst)`` pairs, after checking each
    is what the writer emits: two non-bool ints in ``[0, end)``.  Raises
    ``ValueError`` or ``TypeError``."""
    out: List[Tuple[int, int]] = []
    for edge in stored:
        if type(edge) is not list or len(edge) != 2:
            raise ValueError(f"edge {edge!r} is not an id pair")
        src, dst = edge
        if type(src) is not int or type(dst) is not int \
                or not (0 <= src < end and 0 <= dst < end):
            raise ValueError(f"edge {edge!r} is not two segment ids "
                             f"below {end}")
        out.append((src, dst))
    return out


def _stored_edges(chunk) -> int:
    """How many edges a lost segment chunk carried."""
    edges = chunk.payload.get("edges")
    return len(edges) if type(edges) is list else 0


def _acyclic_prefix(ends: List[int], pairs: List[Tuple[int, int]]) -> int:
    """How many leading segment chunks, ending at ids ``ends``, keep the
    edges among their segments acyclic: one Kahn pass over the whole run
    when it is a DAG, a binary search over the chunks when it is not."""
    def acyclic(chunks: int) -> bool:
        n = ends[chunks - 1] if chunks else 0
        succ: List[List[int]] = [[] for _ in range(n)]
        for src, dst in pairs:
            if src < n and dst < n:
                succ[src].append(dst)
        return len(kahn_order(succ)) == n

    if acyclic(len(ends)):
        return len(ends)
    good, bad = 0, len(ends)
    while bad - good > 1:
        mid = (good + bad) // 2
        if acyclic(mid):
            good = mid
        else:
            bad = mid
    return good


def _allocator(space: AddressSpace) -> Allocator:
    """An allocator over ``space`` and its heap region, holding no blocks
    (a loaded run never allocates, so a space without a heap gets an
    empty, unmapped one)."""
    heap = next((r for r in space.regions if r.kind is RegionKind.HEAP),
                Region("heap", HEAP_BASE, 0, RegionKind.HEAP))
    return Allocator(space, heap)


def load_environment(data: dict) -> Allocator:
    """The stored environment in the machine's own types: each region
    mapped into an :class:`AddressSpace`, which rejects overlapping ones,
    and each block an :class:`AllocationBlock` of an :class:`Allocator`
    over that space (freed blocks kept in its history only).  Raises
    ``LookupError``, ``TypeError`` or ``ValueError``."""
    space = AddressSpace()
    for r in data["regions"]:
        space.map_region(Region(r["name"], r["base"], r["size"],
                                RegionKind(r["kind"]), r["owner"]))
    allocator = _allocator(space)
    locs: dict = {}
    for b in data["blocks"]:
        block = AllocationBlock(
            addr=b["addr"], size=b["size"], seq=b["seq"],
            req_size=b["req_size"], alloc_site=_location(b["site"], locs),
            alloc_stack=tuple(_location(s, locs) for s in b["stack"]),
            freed=b["freed"], retained=b["retained"])
        allocator.all_blocks.append(block)
        if not block.freed:
            allocator.blocks[block.addr] = block
    return allocator


# ---------------------------------------------------------------------------
# coverage accounting + the salvage reader
# ---------------------------------------------------------------------------

@dataclass
class TraceCoverage:
    """What a (possibly damaged) trace load actually recovered."""

    complete: bool = True
    trace_version: int = TRACE_VERSION
    segments_total: Optional[int] = None     # None: header lost too
    segments_recovered: int = 0
    edges_total: Optional[int] = None
    edges_recovered: int = 0
    edges_dropped_dangling: int = 0          # edges into lost segments
    chunks_valid: int = 0
    chunks_corrupt: int = 0
    first_bad_chunk: Optional[int] = None
    first_bad_byte: Optional[int] = None
    #: cost-model vtime stamped on the newest chunk that survived
    last_good_vtime: float = 0.0
    environment_recovered: bool = True
    errors: List[str] = field(default_factory=list)

    @property
    def segments_lost(self) -> Optional[int]:
        if self.segments_total is None:
            return None
        return self.segments_total - self.segments_recovered

    def to_dict(self) -> dict:
        return {
            "schema": "taskgrind-trace-coverage/1",
            "complete": self.complete,
            "trace_version": self.trace_version,
            "segments": {"total": self.segments_total,
                         "recovered": self.segments_recovered,
                         "lost": self.segments_lost},
            "edges": {"total": self.edges_total,
                      "recovered": self.edges_recovered,
                      "dropped_dangling": self.edges_dropped_dangling},
            "chunks": {"valid": self.chunks_valid,
                       "corrupt": self.chunks_corrupt,
                       "first_bad": self.first_bad_chunk,
                       "first_bad_byte": self.first_bad_byte},
            "last_good_vtime": self.last_good_vtime,
            "environment_recovered": self.environment_recovered,
            "errors": list(self.errors),
        }

    def summary(self) -> str:
        if self.complete:
            return "trace complete"
        seg = f"{self.segments_recovered}"
        if self.segments_total is not None:
            seg += f"/{self.segments_total}"
        return (f"trace salvaged: {seg} segments, "
                f"{self.edges_recovered} edges recovered, "
                f"{self.chunks_corrupt} bad chunk(s), "
                f"last good vtime {self.last_good_vtime:.0f}")


@dataclass
class SalvagedTrace:
    """Everything :func:`load_trace_salvaged` recovered."""

    graph: SegmentGraph
    #: the recorded heap blocks; its ``space`` holds the recorded regions
    allocator: Allocator
    suppression: dict
    stats: Optional[dict]
    coverage: TraceCoverage


@dataclass
class _RawChunk:
    seq: int
    kind: str
    payload: dict
    #: where the line starts in the file (``None`` for uploaded chunks)
    byte_offset: Optional[int]


def _scan_chunks(data: bytes, cov: TraceCoverage) -> List[_RawChunk]:
    """Decode + checksum every line independently; book damage in ``cov``."""
    chunks: List[_RawChunk] = []
    for offset, line in chunk_lines(data):
        try:
            doc = decode_chunk(line)
            verify_crc(doc, line)
        except ChunkError as exc:
            cov.chunks_corrupt += 1
            cov.complete = False
            if cov.first_bad_byte is None:
                cov.first_bad_byte, cov.first_bad_chunk = offset, exc.seq
            cov.errors.append(f"byte {offset}: {exc}")
            continue
        chunks.append(_accept(cov, doc, offset))
    return chunks


def _accept(cov: TraceCoverage, doc: dict, offset: Optional[int]
            ) -> _RawChunk:
    """Book one chunk that passed the framing checks."""
    cov.chunks_valid += 1
    cov.last_good_vtime = max(cov.last_good_vtime,
                              float(doc.get("vtime", 0.0)))
    return _RawChunk(seq=doc["seq"], kind=doc["kind"],
                     payload=doc["payload"], byte_offset=offset)


def _lose(cov: TraceCoverage, chunk: _RawChunk, error: str) -> None:
    """Book content damage in a framing-valid chunk, the first bad one
    unless one before it in the stream was booked already."""
    cov.complete = False
    cov.errors.append(error)
    first = cov.first_bad_byte
    if (first is None and cov.first_bad_chunk is None) \
            or (first is not None and chunk.byte_offset < first):
        cov.first_bad_chunk, cov.first_bad_byte = chunk.seq, chunk.byte_offset


def _assemble_v2(chunks: List[_RawChunk],
                 cov: TraceCoverage) -> SalvagedTrace:
    """Rebuild the longest valid prefix from independently-valid chunks."""
    header = next((c for c in chunks if c.kind == "header"), None)
    if header is not None:
        totals = header.payload.get("segments"), header.payload.get("edges")
        if all(type(t) is int and t >= 0 for t in totals):
            cov.segments_total, cov.edges_total = totals
        else:
            _lose(cov, header, f"header chunk {header.seq}: totals "
                               f"{list(totals)!r} are not counts")
    else:
        cov.complete = False
        cov.errors.append("header chunk lost; totals unknown")

    # Edges ride in the chunk of their highest-id endpoint, so a dense run
    # of segment chunks carries every ordering among its own segments.  A
    # chunk whose edges are malformed or close a cycle is lost whole, with
    # everything after it: losing an edge must lose an endpoint with it,
    # or salvage would invent races.
    runs: List[_RawChunk] = []
    ends: List[int] = []
    pairs: List[Tuple[int, int]] = []
    broken = False
    for c in chunks:
        if c.kind != "segments":
            continue
        start = ends[-1] if ends else 0
        got = c.payload.get("start")
        if not broken and got == start:
            try:
                end = start + len(c.payload["segments"])
                chunk_pairs = _edge_pairs(c.payload.get("edges", []), end)
            except (LookupError, TypeError, ValueError) as exc:
                _lose(cov, c, f"segment chunk {c.seq}: {exc}")
            else:
                pairs += chunk_pairs
                runs.append(c)
                ends.append(end)
                continue
        elif not broken:
            gap = f"; segment ids {start}..{got - 1} are missing" \
                if type(got) is int and got > start else ""
            _lose(cov, c, f"segment chunk {c.seq}: starts at id {got!r} "
                          f"where {start} was due{gap}")
        # a chunk before this one was lost (ids would no longer be dense),
        # or this one is damaged: everything from here on is unrecoverable
        broken = True
        cov.complete = False
        cov.edges_dropped_dangling += _stored_edges(c)
    keep = _acyclic_prefix(ends, pairs)
    if keep < len(runs):
        _lose(cov, runs[keep], f"segment chunk {runs[keep].seq}: "
                               "happens-before edges close a cycle")
        del runs[keep:]

    graph = SegmentGraph()
    locs: dict = {}
    snaps: dict = {}
    for c in runs:
        segs, exc = _decode_segments(c.payload["segments"],
                                     len(graph.segments), locs, snaps)
        graph.segments += segs
        graph._succ += [[] for _ in segs]
        if exc is not None:
            _lose(cov, c, f"segment chunk {c.seq}: unreadable segment after "
                          f"id {len(graph.segments) - 1}: {exc!r}")
            break
    n = cov.segments_recovered = len(graph.segments)
    total = cov.segments_total
    if total is not None and n < total:
        cov.complete = False
        cov.errors.append(f"{total - n} of the header's {total} segments "
                          f"missing (ids {n}..{total - 1})")
    for src, dst in pairs:
        if src < n and dst < n:
            graph.add_edge(graph.segments[src], graph.segments[dst])
            cov.edges_recovered += 1
        else:
            cov.edges_dropped_dangling += 1

    env = next((c for c in chunks if c.kind == "environment"), None)
    if env is not None:
        try:
            allocator = load_environment(env.payload)
        except (LookupError, TypeError, ValueError) as exc:
            allocator = _allocator(AddressSpace())
            cov.environment_recovered = False
            _lose(cov, env, f"environment chunk unreadable: {exc!r}")
    else:
        allocator = _allocator(AddressSpace())
        cov.environment_recovered = False
        cov.complete = False
        cov.errors.append("environment chunk lost; reports will lack "
                          "allocation context and TLS/stack suppression "
                          "evidence")

    supp_chunk = next((c for c in chunks if c.kind == "suppression"), None)
    supp = dict(supp_chunk.payload) if supp_chunk is not None else {}
    stats_chunk = next((c for c in chunks if c.kind == "stats"), None)
    stats = stats_chunk.payload if stats_chunk is not None else None

    end = next((c for c in chunks if c.kind == "end"), None)
    if end is None:
        cov.complete = False
        cov.errors.append("end marker missing: trace truncated")
    return SalvagedTrace(graph=graph, allocator=allocator, suppression=supp,
                         stats=stats, coverage=cov)


def load_trace_salvaged(path: str) -> SalvagedTrace:
    """Crash-tolerant load: recover the longest valid prefix.

    Never raises on damage within the stream — a truncated file, a
    corrupt middle chunk or an outright empty file all come back as a
    (possibly empty) graph plus a :class:`TraceCoverage` explaining the
    loss.  Only a file it cannot read or of another *format* raises
    :class:`~repro.errors.TraceFormatError` (there is nothing to salvage).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise TraceFormatError(path, repr(exc)) from exc
    cov = TraceCoverage()
    first_line = data.split(b"\n", 1)[0].strip()
    if not first_line:
        cov.complete = False
        cov.errors.append("empty trace file")
        return _no_trace(cov)
    try:
        header_doc = decode_chunk(first_line)
    except ChunkError as exc:
        header_doc = exc.doc
    if isinstance(header_doc, dict) and (
            "graph" in header_doc
            or ("version" in header_doc and "kind" not in header_doc)
            or (header_doc.get("kind") == "header"
                and header_doc.get("version") != TRACE_VERSION)):
        # a single-document trace (version 1) or an intact header from some
        # other format revision: wrong format, not damage — salvaging it
        # would misread every chunk
        raise TraceVersionError(path, header_doc.get("version"),
                                f"version {TRACE_VERSION}")
    return _assemble_v2(_scan_chunks(data, cov), cov)


def assemble_chunks(chunk_docs) -> SalvagedTrace:
    """Assemble already-validated v2 chunk envelopes into a trace.

    The ingestion server's adapter onto the salvage reader: its upload
    edge has already parsed and CRC-checked every envelope (rejecting bad
    ones at the wire), so this skips :func:`_scan_chunks` and goes
    straight to dense-prefix assembly.  ``chunk_docs`` are the parsed
    ``{seq, kind, vtime, crc, payload}`` dicts in accepted order.
    """
    cov = TraceCoverage()
    chunks = [_accept(cov, doc, None) for doc in chunk_docs]
    if not chunks:
        cov.complete = False
        cov.errors.append("no chunks uploaded")
        return _no_trace(cov)
    return _assemble_v2(chunks, cov)


def _no_trace(cov: TraceCoverage) -> SalvagedTrace:
    return SalvagedTrace(graph=SegmentGraph(),
                         allocator=_allocator(AddressSpace()),
                         suppression={}, stats=None, coverage=cov)


# ---------------------------------------------------------------------------
# strict loaders (raise the trace-error taxonomy)
# ---------------------------------------------------------------------------

def _load_strict(path: str) -> SalvagedTrace:
    salvaged = load_trace_salvaged(path)
    cov = salvaged.coverage
    if cov.complete:
        return salvaged
    if not cov.chunks_valid and not cov.chunks_corrupt \
            and cov.segments_recovered == 0:
        raise TraceFormatError(path, cov.errors[0] if cov.errors
                               else "no recognizable trace content")
    raise TraceCorruptionError(
        path,
        byte_offset=(cov.first_bad_byte if cov.first_bad_byte is not None
                     else -1),
        chunk_seq=cov.first_bad_chunk,
        reason="; ".join(cov.errors) or "incomplete trace")


def load_trace(path: str) -> Tuple[SegmentGraph, Allocator, dict]:
    """Strict load: any damage raises the :mod:`repro.errors` taxonomy.

    :class:`~repro.errors.TraceVersionError` for unknown versions (it
    subclasses ``ValueError``, preserving the pre-taxonomy contract),
    :class:`~repro.errors.TraceCorruptionError` for checksum/truncation
    damage with the byte offset of the first bad chunk, and
    :class:`~repro.errors.TraceFormatError` for files that are not traces.
    """
    s = _load_strict(path)
    return s.graph, s.allocator, s.suppression


# ---------------------------------------------------------------------------
# offline analysis
# ---------------------------------------------------------------------------

def analyze_loaded(graph: SegmentGraph, allocator: Allocator,
                   supp_flags: dict, *,
                   coverage: Optional[TraceCoverage] = None,
                   workers: int = 1,
                   explain: bool = False,
                   deadline_s: Optional[float] = None,
                   max_retries: int = 2) -> Detection:
    """Algorithm 1 + suppression + reporting on an already-loaded trace.

    The file-based :func:`analyze_trace_with_stats` and the ingestion
    server's job executor (which assembles graphs from uploaded chunks)
    both funnel through here into
    :func:`~repro.core.analysis.analyze_and_suppress`, the back half the
    online tool runs too, so their reports are byte-identical for the
    same trace content.  The stored suppression flags pick the Section IV
    classes; a salvaged trace's reports carry its coverage note.
    ``workers``, ``deadline_s`` and ``max_retries`` go to
    :func:`~repro.core.analysis.find_races`.
    """
    config = SuppressionConfig(
        suppress_tls=supp_flags.get("suppress_tls", True),
        suppress_stack=supp_flags.get("suppress_stack", True))
    notes: Tuple[str, ...] = ()
    if coverage is not None and not coverage.complete:
        notes = ("incomplete evidence: " + coverage.summary(),)
    return analyze_and_suppress(
        graph, SuppressionEngine(allocator.space, config), allocator,
        workers=workers, deadline_s=deadline_s, max_retries=max_retries,
        explain=explain, notes=notes)


def analyze_trace(path: str, *, workers: int = 1,
                  explain: bool = False,
                  strict: bool = False) -> List[RaceReport]:
    """The full offline pipeline: load, Algorithm 1, suppress, report."""
    reports, _stats = analyze_trace_with_stats(path, workers=workers,
                                               explain=explain,
                                               strict=strict)
    return reports


def analyze_trace_with_stats(path: str, *, workers: int = 1,
                             explain: bool = False,
                             strict: bool = False
                             ) -> Tuple[List[RaceReport], dict]:
    """The offline pipeline with a per-phase stats document.

    The returned document mirrors the online tool's shape: the embedded
    record-phase stats (with their cost-model virtual time) under
    ``"record_run"``, the offline load/analysis/suppress/report phase
    timings under ``"phases"``, plus analysis and suppression counters.
    The phase timings are **per-run deltas** — two back-to-back analyses in
    one process each report only their own work, not the registry's
    cumulative process-lifetime totals.

    By default the load is salvage-mode: a damaged trace degrades to its
    longest valid prefix and the stats document carries a ``"coverage"``
    block accounting for the loss (reports additionally carry a salvage
    warning note).  ``strict=True`` restores fail-stop loading.
    """
    reg = get_registry()
    baseline = reg.mark()
    with reg.phase("offline"):
        with reg.phase("offline.load"):
            loaded = _load_strict(path) if strict \
                else load_trace_salvaged(path)
            coverage = None if strict else loaded.coverage
            if coverage is not None and not coverage.complete:
                reg.counter("resilience.trace_salvaged").inc()
                reg.counter("resilience.trace_chunks_lost").inc(
                    coverage.chunks_corrupt)
        la = analyze_loaded(loaded.graph, loaded.allocator,
                            loaded.suppression, coverage=coverage,
                            workers=workers, explain=explain)
    reports = la.reports
    stats = {
        "schema": "taskgrind-offline-stats/1",
        "trace": path,
        "analysis": {
            "raw_candidates": la.raw_candidates,
            "reports": len(reports),
            "stack_local_intervals": la.partial.stack_local_intervals,
            "resilience": la.partial.to_dict(),
        },
        "suppress": la.engine.stats_doc(),
        "graph": loaded.graph.stats(),
        "phases": reg.delta_since(baseline)["phases"],
        "record_run": loaded.stats,
    }
    if coverage is not None:
        stats["coverage"] = coverage.to_dict()
    reg.publish("offline", stats)
    return reports, stats
