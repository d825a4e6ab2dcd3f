"""Segment graph: nodes, happens-before edges, and construction from events.

A *segment* is a maximal sequence of instructions of one task executed
between two task scheduling points (Section II-A).  The builder consumes the
OMPT-style runtime events and maintains, per simulated thread, a stack of
``(task, current segment)`` entries: nested inline task execution pushes,
completion pops, and every scheduling point closes the entry's segment and
opens a successor with the happens-before edges the synchronisation implies:

===========================  ===================================================
event                        edges created
===========================  ===================================================
task create                  split creator segment (A1 -> A2); child's first
                             segment gets A1 -> child
task begin                   creation-segment edge + one edge per completed
                             dependence predecessor's final segment
taskwait end                 prior segment -> new, each direct child's final
                             -> new
taskgroup end                prior -> new, each member task's final -> new
barrier                      every member's pre-segment -> join node; join ->
                             every post-segment; every explicit task final of
                             the region so far -> join
parallel begin/end           fork segment -> each implicit first segment;
                             each implicit final -> continuation (Eq. (1)
                             region ordering follows transitively)
undeferred (`if(0)`) task    additionally child final -> creator continuation
                             (the task is sequenced) when the model honours it
detach fulfill               body final + fulfilling segment -> completion node
===========================  ===================================================

The builder only adds nodes and edges.  Happens-before is a path in the
finished graph: :class:`SegmentGraph` answers every query — online,
offline, served, and for the baseline tools that reuse the builder — from
one bitmask reachability DP, built when the analysis first reads it.

Which of these a tool applies is controlled by :class:`SegmentModelConfig` —
the knob that models the capability differences between Taskgrind,
TaskSanitizer and ROMP in Table I (e.g. TaskSanitizer does not support
``inoutset`` or ``detach``; Taskgrind does not order mutexes).

Flag fidelity: the LLVM runtime reports tasks it *serialized* (single-thread
team) with the same ``undeferred`` OMPT flag as genuine ``if(0)`` tasks
(llvm-project issue #89398, discussed in the paper).  The builder therefore
sees ``INCLUDED`` tasks as sequenced unless the user *annotated* the task as
semantically deferrable (the paper's LULESH annotation, forwarded to
Taskgrind by client request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.machine.debuginfo import SourceLocation
from repro.obs.metrics import get_registry
from repro.obs.prof import get_profiler
from repro.obs.tracer import get_tracer
from repro.machine.tls import TlsSnapshot
from repro.openmp.ompt import DepKind, Dependence, TaskFlags
from repro.openmp.tasks import Task
from repro.util.intervals import IntervalSet, coalesce_sorted_pairs

MAX_LOC_SAMPLES = 64

#: Direct-mapped write-combining cache geometry: addresses map to one of
#: ``_WC_SLOTS`` slots by 64-byte line, mirroring how a DBI tool would keep a
#: tiny per-thread cache of recently-touched cells in front of the real
#: access structure.
_WC_SLOTS = 16
_WC_MASK = _WC_SLOTS - 1
_WC_SHIFT = 6

#: Adaptive activation threshold: a segment's pending buffer starts as a bare
#: append list and only spins up the direct-mapped cell cache once this many
#: accesses have arrived.  Workloads with thousands of tiny segments (deep
#: task recursion à la fib: ~1.6 accesses per segment) never pay the
#: ``[None] * _WC_SLOTS`` allocation + cell probing that a dense sweep
#: amortizes over thousands of hits.
_WC_ACTIVATE = 8

#: prebound recorder counters — incremented only at drain/flush time (cold),
#: never per access, so the write-combining hot loop stays registry-free
_REG = get_registry()
_TRACER = get_tracer()
_PROF = get_profiler()
_WC_HITS = _REG.counter("record.wc_hits")
_WC_SPILLS = _REG.counter("record.wc_spills")
_WC_TINY_DRAINS = _REG.counter("record.wc_tiny_drains")
_WC_FLUSHES = _REG.counter("record.wc_flushes")
_WC_ACCESSES = _REG.counter("record.wc_accesses")

#: the access set of every segment that recorded nothing in one direction
#: (most of a deep task tree's segments).  Shared, so no segment's set is
#: ever mutated in place: a drain always builds a new one.
_NO_ACCESSES = IntervalSet()


@dataclass
class SegmentModelConfig:
    """Which synchronisation semantics a tool's segment model understands."""

    honor_dependencies: bool = True
    honor_inoutset: bool = True           # TaskSanitizer: False
    honor_mutexinoutset: bool = True
    honor_detach: bool = True             # TaskSanitizer: False
    honor_taskwait: bool = True
    honor_taskgroup: bool = True
    honor_undeferred: bool = True         # sequence if(0)/serialized tasks
    honor_mergeable: bool = False         # nobody models merged tasks (DRB129)
    #: treat tasks the user annotated as deferrable as truly deferred even if
    #: the runtime serialized them (Taskgrind's client-request annotation)
    honor_deferrable_annotation: bool = True


class _PendingAccesses:
    """Write-combining buffer for one access direction of one segment.

    The fast path of :meth:`Segment.record`: a direct-mapped cache of
    recently-touched cells (hits extend the cell's hull in place — the common
    case for the dense strided sweeps of Fig. 3) backed by an append-only
    spill of evicted cells.  Nothing is sorted until the segment's set is
    next read (:func:`_drain_into`), which sorts and coalesces once.

    The cell cache is *adaptive*: the first ``_WC_ACTIVATE`` accesses go to a
    plain append list (with a last-entry hull-extend for the sequential
    case), and the direct-mapped cells only materialize past that threshold.
    """

    __slots__ = ("cells", "spill", "count", "hits")

    def __init__(self) -> None:
        #: allocated lazily once the access count clears ``_WC_ACTIVATE`` —
        #: tiny segments stay in plain-append mode end to end
        self.cells: Optional[List[Optional[List[int]]]] = None
        self.spill: List[Tuple[int, int]] = []
        self.count = 0
        self.hits = 0

    def add(self, lo: int, hi: int) -> None:
        self.count += 1
        cells = self.cells
        if cells is None:
            if self.count <= _WC_ACTIVATE:
                spill = self.spill
                if spill:
                    plo, phi = spill[-1]
                    if lo <= phi and plo <= hi:     # overlap or adjacency
                        self.hits += 1
                        if lo < plo or hi > phi:
                            spill[-1] = (min(lo, plo), max(hi, phi))
                        return
                spill.append((lo, hi))
                return
            cells = self.cells = [None] * _WC_SLOTS
        slot = (lo >> _WC_SHIFT) & _WC_MASK
        cell = cells[slot]
        if cell is not None:
            if lo <= cell[1] and cell[0] <= hi:     # overlap or adjacency
                if lo < cell[0]:
                    cell[0] = lo
                if hi > cell[1]:
                    cell[1] = hi
                self.hits += 1
                return
            self.spill.append((cell[0], cell[1]))
        cells[slot] = [lo, hi]

    def drain(self) -> List[Tuple[int, int]]:
        """All buffered ranges, unsorted; resets the buffer."""
        pairs = self.spill
        spilled = 0
        if self.cells is not None:
            spilled = len(pairs)
            _WC_SPILLS.inc(spilled)
            for cell in self.cells:
                if cell is not None:
                    pairs.append((cell[0], cell[1]))
            self.cells = None
        else:
            _WC_TINY_DRAINS.inc()
        _WC_ACCESSES.inc(self.count)
        _WC_HITS.inc(self.hits)
        _WC_FLUSHES.inc()
        if _PROF.enabled:
            # count-axis attribution: booked once per drain (cold), never
            # per access — the write-combining hot loop stays profiler-free
            if self.hits:
                _PROF.count("record.wc.hit", n=self.hits)
            if spilled:
                _PROF.count("record.wc.spill", n=spilled)
            _PROF.count("record.wc.flush")
        self.spill = []
        self.count = 0
        self.hits = 0
        return pairs


def _drain_into(current: IntervalSet, pend: _PendingAccesses) -> IntervalSet:
    """A new set holding ``current`` plus everything ``pend`` buffered.

    One path for the first drain and any later one (a segment read while
    still open): the buffered ranges and the set's intervals are sorted
    together and coalesced in one pass.
    """
    pairs = pend.drain()
    if current:
        pairs += zip(current._los, current._his)
    pairs.sort()
    merged = coalesce_sorted_pairs(pairs)
    out = IntervalSet()
    out._los = [lo for lo, _ in merged]
    out._his = [hi for _, hi in merged]
    return out


class Segment:
    """One node of the segment graph, with its read and write sets."""

    __slots__ = ("id", "thread_id", "task", "kind", "virtual", "open",
                 "_reads", "_writes", "_pend_r", "_pend_w",
                 "loc_samples", "sp_at_start",
                 "stack_bounds", "tls_snapshot", "label_loc", "saved_label",
                 "seq_opened", "seq_closed")

    def __init__(self, sid: int, thread_id: int, task: Optional[Task],
                 kind: str, *, virtual: bool = False,
                 sp_at_start: int = 0,
                 stack_bounds: Tuple[int, int] = (0, 0),
                 label_loc: Optional[SourceLocation] = None) -> None:
        self.id = sid
        self.thread_id = thread_id
        self.task = task
        self.kind = kind                 # 'serial','implicit','task','join'
        self.virtual = virtual
        self.open = not virtual
        self._reads = _NO_ACCESSES
        self._writes = _NO_ACCESSES
        self._pend_r: Optional[_PendingAccesses] = None
        self._pend_w: Optional[_PendingAccesses] = None
        #: (lo, hi, is_write, loc) samples for report rendering
        self.loc_samples: List[Tuple[int, int, bool, Optional[SourceLocation]]] = []
        self.sp_at_start = sp_at_start
        self.stack_bounds = stack_bounds
        self.tls_snapshot: Optional[TlsSnapshot] = None
        self.label_loc = label_loc
        #: the label a saved trace recorded (a loaded segment has no task)
        self.saved_label: Optional[str] = None
        self.seq_opened = -1
        self.seq_closed = -1

    # -- recording ---------------------------------------------------------

    @property
    def reads(self) -> IntervalSet:
        """The read set; drains any write-combined pending accesses first.

        Treat it as read-only: sets are shared and replaced, never mutated.
        """
        p = self._pend_r
        if p is not None and p.count:
            self._reads = _drain_into(self._reads, p)
        return self._reads

    @property
    def writes(self) -> IntervalSet:
        """The write set; drains any write-combined pending accesses first."""
        p = self._pend_w
        if p is not None and p.count:
            self._writes = _drain_into(self._writes, p)
        return self._writes

    def record(self, addr: int, size: int, is_write: bool,
               loc: Optional[SourceLocation] = None) -> None:
        """Write-combine one access into a pending buffer.

        The segment's sets are only rebuilt when they are next read
        (normally when the segment closes): one sort and coalesce per
        drain instead of one insert per access.
        """
        if is_write:
            p = self._pend_w
            if p is None:
                p = self._pend_w = _PendingAccesses()
        else:
            p = self._pend_r
            if p is None:
                p = self._pend_r = _PendingAccesses()
        p.add(addr, addr + size)
        if len(self.loc_samples) < MAX_LOC_SAMPLES:
            self.loc_samples.append((addr, addr + size, is_write, loc))

    def flush_accesses(self) -> None:
        """Drain pending write-combined accesses into the segment's sets."""
        self.reads
        self.writes

    def sample_loc(self, lo: int, hi: int,
                   want_write: Optional[bool] = None) -> Optional[SourceLocation]:
        """A recorded source location overlapping ``[lo, hi)``, if any."""
        for a, b, w, loc in self.loc_samples:
            if a < hi and lo < b and (want_write is None or w == want_write):
                if loc is not None:
                    return loc
        return None

    @property
    def has_accesses(self) -> bool:
        return (bool(self._reads) or bool(self._writes)
                or (self._pend_r is not None and self._pend_r.count > 0)
                or (self._pend_w is not None and self._pend_w.count > 0))

    def label(self) -> str:
        if self.label_loc is not None:
            return str(self.label_loc)
        if self.task is not None:
            return self.task.label()
        if self.saved_label is not None:
            return self.saved_label
        return f"{self.kind}#{self.id}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Segment {self.id} {self.kind} t{self.thread_id} {self.label()}>"


def kahn_order(succ: List[List[int]]) -> List[int]:
    """Kahn topological order of the graph with adjacency lists ``succ``.

    Shorter than ``succ`` exactly when the graph has a cycle: the nodes on
    a cycle, and those after one, never reach in-degree zero.
    """
    indeg = [0] * len(succ)
    for succs in succ:
        for t in succs:
            indeg[t] += 1
    frontier = [i for i, d in enumerate(indeg) if d == 0]
    order: List[int] = []
    while frontier:
        sid = frontier.pop()
        order.append(sid)
        for t in succ[sid]:
            indeg[t] -= 1
            if indeg[t] == 0:
                frontier.append(t)
    return order


class SegmentGraph:
    """DAG of segments with a bitset reachability DP.

    Every happens-before query reads one descendant bitmask per segment,
    built by one reverse-topological DP the first time a query needs it
    (Taskgrind runs Algorithm 1 after the program ends, so the graph is
    complete by then) and dropped by any later graph mutation.
    """

    def __init__(self) -> None:
        self.segments: List[Segment] = []
        self._succ: List[List[int]] = []
        self.edge_count = 0
        self._reach: Optional[List[int]] = None    # descendant bitmask per node
        # query count (a plain int: incremented on the analysis hot path,
        # published into the metrics registry at stats-assembly time)
        self.q_dp = 0              # answered by the bitmask DP
        self.dp_rebuilds = 0       # full reachability DP materializations
        #: replay hook (repro.replay): an object with ``on_segment(seg)``
        #: and ``on_edge(src_id, dst_id)``, notified in creation order —
        #: ``_succ`` loses that order, so recording must observe it live
        self.observer = None

    def new_segment(self, **kwargs) -> Segment:
        seg = Segment(len(self.segments), **kwargs)
        self.segments.append(seg)
        self._succ.append([])
        self._reach = None
        if self.observer is not None:
            self.observer.on_segment(seg)
        return seg

    def add_edge(self, src: Optional[Segment], dst: Optional[Segment]) -> None:
        if src is None or dst is None or src is dst:
            return
        self._succ[src.id].append(dst.id)
        self.edge_count += 1
        self._reach = None
        if self.observer is not None:
            self.observer.on_edge(src.id, dst.id)
        if _TRACER.enabled and (src.thread_id != dst.thread_id
                                or src.virtual or dst.virtual):
            # cross-thread / join-node edges are the synchronisation edges —
            # same-thread program-order edges would only be timeline noise
            _TRACER.edge_flow(f"hb seg#{src.id}->seg#{dst.id}",
                              src.thread_id, dst.thread_id,
                              args={"src": src.id, "dst": dst.id})

    # -- reachability --------------------------------------------------------

    def _topo_order(self) -> List[int]:
        """Kahn topological order (ids are *not* topological: a task executed
        inside a barrier closes after the join node was created)."""
        order = kahn_order(self._succ)
        if len(order) != len(self.segments):  # pragma: no cover - invariant
            raise AssertionError("segment graph has a cycle")
        return order

    def _compute_reach(self) -> List[int]:
        """Descendant bitmask per segment via reverse-topological DP."""
        reach = [0] * len(self.segments)
        for sid in reversed(self._topo_order()):
            mask = 0
            for t in self._succ[sid]:
                mask |= (1 << t) | reach[t]
            reach[sid] = mask
        return reach

    def _reachability(self) -> List[int]:
        if self._reach is None:
            self.dp_rebuilds += 1
            with get_registry().phase("hb.dp_rebuild"):
                self._reach = self._compute_reach()
        return self._reach

    def ordered(self, a: Segment, b: Segment) -> bool:
        """True when a path exists between ``a`` and ``b`` (either direction)."""
        self.q_dp += 1
        if _PROF.enabled:
            _PROF.count("hb.query.dp")
        reach = self._reachability()
        return bool(reach[a.id] >> b.id & 1) or bool(reach[b.id] >> a.id & 1)

    def happens_before(self, a: Segment, b: Segment) -> bool:
        self.q_dp += 1
        if _PROF.enabled:
            _PROF.count("hb.query.dp")
        return bool(self._reachability()[a.id] >> b.id & 1)

    def independent(self, a: Segment, b: Segment) -> bool:
        return a is not b and not self.ordered(a, b)

    def explain_unordered(self, a: Segment, b: Segment) -> dict:
        """Why the query path found no happens-before path.

        Reads the same DP rows as :meth:`ordered` without touching the
        query counter: the provenance half of a race report's witness.
        """
        reach = self._reachability()
        return {
            "tier": "dp",
            "a_reaches_b": bool(reach[a.id] >> b.id & 1),
            "b_reaches_a": bool(reach[b.id] >> a.id & 1),
            "reason": ("bitmask reachability DP found no path "
                       f"seg#{a.id}->seg#{b.id} nor seg#{b.id}->seg#{a.id}"),
        }

    def successors(self, seg: Segment) -> List[Segment]:
        return [self.segments[i] for i in self._succ[seg.id]]

    def predecessors_map(self) -> List[List[int]]:
        """Reverse adjacency (predecessor ids per segment), built on demand."""
        preds: List[List[int]] = [[] for _ in self.segments]
        for sid, succs in enumerate(self._succ):
            for t in succs:
                preds[t].append(sid)
        return preds

    def topo_positions(self) -> List[int]:
        """Topological position per segment id (for nearest-ancestor picks)."""
        pos = [0] * len(self.segments)
        for i, sid in enumerate(self._topo_order()):
            pos[sid] = i
        return pos

    def check_acyclic(self) -> None:
        """Raise if the graph has a cycle (it must be a DAG)."""
        self._topo_order()

    def memory_bytes(self, *, bytes_per_node: int = 64,
                     bytes_per_segment: int = 160) -> int:
        """Simulated footprint of the graph + its access sets (one tree node
        per interval, as the paper's per-segment trees would hold)."""
        nodes = sum(len(s.reads) + len(s.writes) for s in self.segments)
        return (nodes * bytes_per_node
                + len(self.segments) * bytes_per_segment
                + self.edge_count * 16)

    def stats(self) -> dict:
        """Graph shape + happens-before query count for the stats document.

        ``queries.label`` stays a literal 0 for readers of the older
        two-tier document: every query is a DP query.
        """
        return {
            "segments": len(self.segments),
            "edges": self.edge_count,
            "queries": {
                "label": 0,
                "dp": self.q_dp,
            },
            "dp_rebuilds": self.dp_rebuilds,
            "memory_bytes": self.memory_bytes(),
        }


@dataclass
class _TaskEntry:
    """Per-thread stack entry: the task being executed + its open segment."""

    task: Optional[Task]
    segment: Segment
    merged_into: Optional["_TaskEntry"] = None


@dataclass
class _TaskInfo:
    """What the builder remembers about each task."""

    creation_segment: Optional[Segment] = None
    final_segment: Optional[Segment] = None
    children: List[Task] = field(default_factory=list)
    preds: List[Tuple[Task, Dependence]] = field(default_factory=list)
    group_members: List[Task] = field(default_factory=list)   # if group owner
    annotated: bool = False
    completion_seq: int = -1
    exec_thread: int = -1


class SegmentBuilder:
    """Builds a :class:`SegmentGraph` from runtime events.

    One instance per tool per run.  The owning tool forwards OMPT events (via
    its shim) and access events (after its own symbol filtering) into the
    builder's methods.
    """

    def __init__(self, machine,
                 config: Optional[SegmentModelConfig] = None) -> None:
        self.machine = machine
        self.config = config or SegmentModelConfig()
        self.graph = SegmentGraph()
        #: when set to a list, every access is appended as
        #: ``(segment_id, addr, size, is_write)`` — the capture hook the
        #: perf bench and the recorder tests replay through per-access
        #: interval-tree inserts
        self.access_log: Optional[List[Tuple[int, int, int, bool]]] = None
        #: 0 = exact byte recording; a power of two widens every access to
        #: its enclosing granule window (memory-budget degradation — see
        #: :meth:`enter_coarse_mode`)
        self.coarse_granule = 0
        self._entries: Dict[int, List[_TaskEntry]] = {}
        self._info: Dict[int, _TaskInfo] = {}
        self._group_stack: Dict[int, List[List[Task]]] = {}   # task tid -> stacks
        self._task_group: Dict[int, Optional[List[Task]]] = {}
        self._region_fork: Dict[int, Segment] = {}
        self._region_unjoined: Dict[int, List[Segment]] = {}
        self._barrier_join: Dict[Tuple[int, int], Segment] = {}
        self._barrier_absorbed: Set[Tuple[int, int]] = set()
        self._barrier_count: Dict[Tuple[int, int], int] = {}  # (region, thread)
        self._taskwait_prior: Dict[Tuple[int, int], Segment] = {}
        self._group_prior: Dict[Tuple[int, int], List] = {}
        self._mutex_last_final: Dict[int, Segment] = {}   # mutexinoutset addr
        self.event_seq = 0
        self.last_seq_by_thread: Dict[int, int] = {}

    # -- plumbing ------------------------------------------------------------

    def _bump(self, thread_id: int) -> int:
        self.event_seq += 1
        self.last_seq_by_thread[thread_id] = self.event_seq
        return self.event_seq

    def info(self, task: Task) -> _TaskInfo:
        ti = self._info.get(task.tid)
        if ti is None:
            ti = self._info[task.tid] = _TaskInfo()
        return ti

    def _stack(self, thread_id: int) -> List[_TaskEntry]:
        st = self._entries.get(thread_id)
        if st is None:
            st = self._entries[thread_id] = []
        return st

    def _thread_meta(self, thread_id: int) -> Tuple[int, Tuple[int, int]]:
        """(current stack pointer, stack region bounds) of a thread."""
        try:
            tctx = self.machine.context(thread_id)
        except KeyError:
            return 0, (0, 0)
        stack = tctx.stack
        frame = stack.current_frame
        sp = frame.sp if frame is not None else stack.region.end
        return sp, (stack.region.base, stack.region.end)

    def _open(self, thread_id: int, task: Optional[Task], kind: str,
              label_loc=None) -> Segment:
        sp, bounds = self._thread_meta(thread_id)
        seg = self.graph.new_segment(thread_id=thread_id, task=task, kind=kind,
                                     sp_at_start=sp, stack_bounds=bounds,
                                     label_loc=label_loc)
        seg.seq_opened = self._bump(thread_id)
        if _TRACER.enabled:
            _TRACER.segment_begin(seg.id, thread_id, kind, seg.label())
        return seg

    def _close(self, seg: Segment, thread_id: int) -> Segment:
        if seg.open:
            seg.open = False
            seg.seq_closed = self._bump(thread_id)
            seg.flush_accesses()       # drain into the access sets now
            if _TRACER.enabled:
                _TRACER.segment_end(seg.id, args={
                    "reads": len(seg._reads), "writes": len(seg._writes)})
                if _PROF.enabled:
                    # merge cumulative per-class op counters onto the
                    # timeline lanes at every segment boundary
                    _PROF.sample_timeline(_TRACER, thread_id)
            try:
                seg.tls_snapshot = self.machine.tls.snapshot(thread_id)
            except KeyError:  # pragma: no cover - threads always registered
                seg.tls_snapshot = None
        return seg

    def current_entry(self, thread_id: int) -> _TaskEntry:
        st = self._stack(thread_id)
        if not st:
            seg = self._open(thread_id, None, "serial")
            st.append(_TaskEntry(task=None, segment=seg))
        return st[-1]

    def current_segment(self, thread_id: int) -> Segment:
        return self.current_entry(thread_id).segment

    def _task_label(self, task: Task):
        return task.create_loc

    def _effectively_sequenced(self, task: Task) -> bool:
        """Is this task sequenced with its creator in this tool's model?

        LLVM's OMPT flag fidelity: INCLUDED (serialized) tasks are
        indistinguishable from UNDEFERRED ones unless annotated.
        """
        if not self.config.honor_undeferred:
            return False
        undeferred_as_seen = bool(
            task.flags & (TaskFlags.UNDEFERRED | TaskFlags.INCLUDED))
        if not undeferred_as_seen:
            return False
        if (self.config.honor_deferrable_annotation
                and self.info(task).annotated
                and not task.flags & TaskFlags.UNDEFERRED):
            # annotation rescues serialized tasks, never genuine if(0)
            return False
        return True

    # -- events: annotation -----------------------------------------------------

    def on_task_annotate_deferrable(self, task: Task) -> None:
        self.info(task).annotated = True

    # -- events: parallel regions -------------------------------------------------

    def on_parallel_begin(self, region, encountering_task: Task,
                          thread_id: int) -> None:
        entry = self.current_entry(thread_id)
        self._region_fork[region.id] = self._close(entry.segment, thread_id)
        self._region_unjoined[region.id] = []

    def on_parallel_end(self, region, encountering_task: Task,
                        thread_id: int) -> None:
        entry = self.current_entry(thread_id)
        seg = self._open(thread_id, entry.task, entry.segment.kind)
        self.graph.add_edge(entry.segment, seg)       # program order
        for t in region.implicit_tasks:
            if t is not None:
                self.graph.add_edge(self.info(t).final_segment, seg)
        # any task that completed without being absorbed by a barrier join
        for fin in self._region_unjoined.pop(region.id, []):
            self.graph.add_edge(fin, seg)
        entry.segment = seg

    def on_implicit_task_begin(self, region, task: Task,
                               thread_id: int) -> None:
        seg = self._open(thread_id, task, "implicit")
        fork = self._region_fork.get(region.id)
        self.graph.add_edge(fork, seg)
        self._stack(thread_id).append(_TaskEntry(task=task, segment=seg))
        self.info(task).creation_segment = self._region_fork.get(region.id)

    def on_implicit_task_end(self, region, task: Task, thread_id: int) -> None:
        entry = self._stack(thread_id).pop()
        self.info(task).final_segment = self._close(entry.segment, thread_id)
        self.info(task).completion_seq = self.event_seq
        self.info(task).exec_thread = thread_id

    # -- events: explicit tasks ------------------------------------------------------

    def on_task_create(self, task: Task, parent: Task, thread_id: int) -> None:
        entry = self.current_entry(thread_id)
        creation = self._close(entry.segment, thread_id)
        cont = self._open(thread_id, entry.task,
                          entry.segment.kind if entry.task else "serial")
        self.graph.add_edge(creation, cont)
        entry.segment = cont
        ti = self.info(task)
        ti.creation_segment = creation
        if parent is not None:
            self.info(parent).children.append(task)
        # taskgroup membership (innermost open group of the creator)
        groups = self._group_stack.get(parent.tid if parent else -1)
        if groups:
            groups[-1].append(task)
            self._task_group[task.tid] = groups[-1]
        else:
            inherited = self._task_group.get(parent.tid) if parent else None
            if inherited is not None:
                inherited.append(task)
                self._task_group[task.tid] = inherited

    def on_task_dependence_pair(self, pred: Task, succ: Task,
                                dep: Dependence) -> None:
        if not self.config.honor_dependencies:
            return
        if dep.kind == DepKind.INOUTSET and not self.config.honor_inoutset:
            return
        if (dep.kind == DepKind.MUTEXINOUTSET
                and not self.config.honor_mutexinoutset):
            return
        self.info(succ).preds.append((pred, dep))

    def on_task_schedule_begin(self, task: Task, thread_id: int) -> None:
        ti = self.info(task)
        if task.is_merged and self.config.honor_mergeable is False:
            # Nobody in the paper's tool set models merged-task semantics:
            # the merged task's accesses land in the encountering task's
            # segment (which is exactly why DRB129 is a universal FN).
            parent_entry = self.current_entry(thread_id)
            self._stack(thread_id).append(_TaskEntry(
                task=task, segment=parent_entry.segment,
                merged_into=parent_entry))
            return
        seg = self._open(thread_id, task, "task",
                         label_loc=self._task_label(task))
        self.graph.add_edge(ti.creation_segment, seg)
        for pred, _dep in ti.preds:
            self.graph.add_edge(self.info(pred).final_segment, seg)
        if self.config.honor_mutexinoutset:
            # Taskgrind orders mutexinoutset members by their observed
            # execution order (the runtime's mutual exclusion serializes them,
            # so the observed order is a sound happens-before witness).
            for addr in task.mutexinoutset_addrs:
                self.graph.add_edge(self._mutex_last_final.get(addr), seg)
        self._stack(thread_id).append(_TaskEntry(task=task, segment=seg))

    def on_task_schedule_end(self, task: Task, thread_id: int,
                             completed: bool) -> None:
        entry = self._stack(thread_id).pop()
        ti = self.info(task)
        if entry.merged_into is not None:
            ti.final_segment = entry.merged_into.segment
            ti.completion_seq = self.event_seq
            ti.exec_thread = thread_id
            return
        final = self._close(entry.segment, thread_id)
        if self.config.honor_mutexinoutset:
            for addr in task.mutexinoutset_addrs:
                self._mutex_last_final[addr] = final
        if completed or not self.config.honor_detach:
            ti.final_segment = final
            ti.completion_seq = self.event_seq
            ti.exec_thread = thread_id
            self._after_completion(task, final)
        else:
            # detached: remember the body's final; completion node comes at
            # fulfill time
            ti.final_segment = final

    def _after_completion(self, task: Task, final: Segment) -> None:
        if task.is_merged:
            return
        if self._effectively_sequenced(task):
            # sequenced with the creator: creator's continuation follows
            creator_entry = self._entry_of_task(task.parent)
            if creator_entry is not None:
                self.graph.add_edge(final, creator_entry.segment)
        region = task.region
        if region is not None:
            self._region_unjoined.setdefault(region.id, []).append(final)

    def _entry_of_task(self, task: Optional[Task]) -> Optional[_TaskEntry]:
        if task is None:
            return None
        for st in self._entries.values():
            for entry in st:
                if entry.task is task:
                    return entry
        return None

    def on_task_detach_fulfill(self, task: Task, thread_id: int) -> None:
        if not self.config.honor_detach:
            return
        ti = self.info(task)
        node = self.graph.new_segment(thread_id=thread_id, task=task,
                                      kind="join", virtual=True)
        node.seq_opened = node.seq_closed = self._bump(thread_id)
        self.graph.add_edge(ti.final_segment, node)
        self.graph.add_edge(self.current_segment(thread_id), node)
        # the fulfilling segment itself must be split so the edge is sound
        self._split_current(thread_id, after=node)
        ti.final_segment = node
        ti.completion_seq = self.event_seq
        ti.exec_thread = thread_id
        self._after_completion(task, node)

    def _split_current(self, thread_id: int, after: Segment) -> None:
        entry = self.current_entry(thread_id)
        closed = self._close(entry.segment, thread_id)
        seg = self._open(thread_id, entry.task, entry.segment.kind)
        self.graph.add_edge(closed, seg)
        self.graph.add_edge(after, seg)
        entry.segment = seg

    # -- events: synchronisation ----------------------------------------------------

    def on_sync_begin(self, kind, task: Task, thread_id: int,
                      region=None) -> None:
        from repro.openmp.ompt import SyncKind
        entry = self.current_entry(thread_id)
        if kind == SyncKind.TASKWAIT:
            self._taskwait_prior[(task.tid, thread_id)] = \
                self._close(entry.segment, thread_id)
        elif kind == SyncKind.TASKGROUP:
            members: List[Task] = []
            self._group_stack.setdefault(task.tid, []).append(members)
            self._group_prior.setdefault((task.tid, thread_id), []).append(
                self._close(entry.segment, thread_id))
            # segment continues until group end; open a body segment
            seg = self._open(thread_id, entry.task, entry.segment.kind)
            self.graph.add_edge(self._group_prior[(task.tid, thread_id)][-1],
                                seg)
            entry.segment = seg
        elif kind in (SyncKind.BARRIER, SyncKind.BARRIER_IMPLICIT):
            if region is None:
                region = task.region
            if region is None or region.size == 1:
                # serial barrier is a plain scheduling point
                self._taskwait_prior[(task.tid, thread_id)] = \
                    self._close(entry.segment, thread_id)
                return
            key = (region.id, thread_id)
            k = self._barrier_count.get(key, 0)
            self._barrier_count[key] = k + 1
            join = self._barrier_join.get((region.id, k))
            if join is None:
                join = self.graph.new_segment(thread_id=-1, task=None,
                                              kind="join", virtual=True)
                join.seq_opened = self.event_seq
                self._barrier_join[(region.id, k)] = join
            pre = self._close(entry.segment, thread_id)
            self.graph.add_edge(pre, join)
            self._taskwait_prior[(task.tid, thread_id)] = pre

    def on_sync_end(self, kind, task: Task, thread_id: int,
                    region=None) -> None:
        from repro.openmp.ompt import SyncKind
        entry = self.current_entry(thread_id)
        if kind == SyncKind.TASKWAIT:
            prior = self._taskwait_prior.pop((task.tid, thread_id), None)
            seg = self._open(thread_id, entry.task, entry.segment.kind)
            self.graph.add_edge(prior, seg)
            if self.config.honor_taskwait:
                for child in self.info(task).children:
                    self.graph.add_edge(self.info(child).final_segment, seg)
            entry.segment = seg
        elif kind == SyncKind.TASKGROUP:
            members = self._group_stack[task.tid].pop()
            prior = self._group_prior[(task.tid, thread_id)].pop()
            closed = self._close(entry.segment, thread_id)
            seg = self._open(thread_id, entry.task, entry.segment.kind)
            self.graph.add_edge(closed, seg)
            if self.config.honor_taskgroup:
                for member in members:
                    self.graph.add_edge(self.info(member).final_segment, seg)
            entry.segment = seg
        elif kind in (SyncKind.BARRIER, SyncKind.BARRIER_IMPLICIT):
            if region is None:
                region = task.region
            if region is None or region.size == 1:
                prior = self._taskwait_prior.pop((task.tid, thread_id), None)
                seg = self._open(thread_id, entry.task, entry.segment.kind)
                self.graph.add_edge(prior, seg)
                # a serial barrier still completes every outstanding task
                if region is not None:
                    for fin in self._region_unjoined.get(region.id, []):
                        self.graph.add_edge(fin, seg)
                    self._region_unjoined[region.id] = []
                entry.segment = seg
                return
            key = (region.id, thread_id)
            k = self._barrier_count[key] - 1
            join = self._barrier_join[(region.id, k)]
            if (region.id, k) not in self._barrier_absorbed:
                # first member through: absorb every task completed so far
                # (the barrier guaranteed they all finished)
                for fin in self._region_unjoined.get(region.id, []):
                    self.graph.add_edge(fin, join)
                self._region_unjoined[region.id] = []
                self._barrier_absorbed.add((region.id, k))
            seg = self._open(thread_id, entry.task, entry.segment.kind)
            self.graph.add_edge(join, seg)
            prior = self._taskwait_prior.pop((task.tid, thread_id), None)
            self.graph.add_edge(prior, seg)
            entry.segment = seg

    # -- accesses -----------------------------------------------------------------

    def enter_coarse_mode(self, granule: int = 64) -> None:
        """Degrade recording to ``granule``-byte intervals (memory budget).

        Every subsequent access is widened to the enclosing granule-aligned
        window, so adjacent accesses coalesce into far fewer intervals.
        This *over*-approximates the access sets — the analysis can then
        report byte overlaps that never happened — which is why the tool
        stamps a degraded-precision warning on every report of such a run.
        One-way: precision already lost cannot be bought back by leaving
        coarse mode, so there is no exit and re-entering can only widen
        the granule, never narrow it.
        """
        assert granule > 0 and (granule & (granule - 1)) == 0, \
            "coarse granule must be a power of two"
        self.coarse_granule = max(self.coarse_granule, granule)

    def record_access(self, thread_id: int, addr: int, size: int,
                      is_write: bool,
                      loc: Optional[SourceLocation] = None) -> None:
        seg = self.current_segment(thread_id)
        g = self.coarse_granule
        if g:
            lo = addr & ~(g - 1)
            size = ((addr + size + g - 1) & ~(g - 1)) - lo
            addr = lo
        if self.access_log is not None:
            self.access_log.append((seg.id, addr, size, is_write))
        seg.record(addr, size, is_write, loc)
