"""False-positive suppression (paper Section IV).

Four mechanisms, individually toggleable so the S4 ablation bench can
quantify each one's contribution.  The two analysis-time ones (3 and 4)
run over Algorithm 1's whole :class:`~repro.core.analysis.ConflictTable`
at once (:meth:`SuppressionEngine.filter_all`): one ``searchsorted`` over
the sorted region table finds each piece's region, the stack rule is a
handful of array comparisons over per-segment thread / stack-bounds /
start-stack-pointer columns, and only pieces in TLS regions take the
scalar DTV check.  Only pairs with surviving bytes become
:class:`~repro.core.analysis.RaceCandidate` objects.

1. **Symbol filtering** (IV-A) — the *ignore-list* drops accesses occurring
   in matching symbols (default: ``__kmp*`` and friends, the parallel
   runtime's own non-determinism); the *instrument-list*, when non-empty,
   keeps only matching symbols.  Applied at recording time by the tool.
2. **Memory recycling** (IV-B) — defeated structurally by replacing ``free``
   with a no-op (see :class:`repro.core.tool.TaskgrindTool.attach`), so
   nothing to do at analysis time; the flag here merely controls whether the
   replacement is installed.  The runtime's private ``__kmp_fast_allocate``
   arena is *not* covered — the paper's future-work limitation.
3. **Thread-local accesses** (IV-C) — a conflict inside a TLS block is
   suppressed when both segments ran on the same thread with the same
   TCB/DTV snapshot.  A DTV block allocated *and* freed within a segment is
   absent from the end-of-segment snapshot, so such conflicts survive — the
   paper's stated limitation, and the ``tls_gen_warnings`` counter implements
   the "could warn via the generation number" remark.
4. **Segment-local (stack) accesses** (IV-D) — a conflict on a stack address
   is suppressed when, for *both* segments, the address lies below the stack
   pointer registered at segment start (i.e. in a frame pushed during the
   segment itself).  A conflict in the *parent's* frame is not suppressed —
   the residual multi-thread TMB false positives the paper reports.  The
   rule also acts before Algorithm 1's pair check: it classes each access
   interval local to its segment or not
   (:meth:`SuppressionEngine.stack_local`), and a pair that shares bytes
   only between local intervals is never checked, since every such byte
   would be suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.analysis import ConflictTable, RaceCandidate
from repro.core.segments import Segment
from repro.machine.memory import AddressSpace, Region, RegionKind
from repro.obs.metrics import get_registry
from repro.obs.prof import get_profiler
from repro.obs.tracer import get_tracer

_TRACER = get_tracer()
_PROF = get_profiler()

#: Default ignore-list: LLVM OpenMP runtime internals, the dynamic loader,
#: and libc allocator internals (the paper names ``__kmp`` explicitly).
DEFAULT_IGNORE_LIST: Tuple[str, ...] = (
    "__kmp", "__kmpc", "_dl_", "__libc_", "__vg_",
)


@dataclass
class SuppressionConfig:
    """Which Section IV suppressions are active."""

    ignore_list: Tuple[str, ...] = DEFAULT_IGNORE_LIST
    instrument_list: Tuple[str, ...] = ()
    suppress_recycling: bool = True        # install the free-as-noop wrapper
    suppress_tls: bool = True
    suppress_stack: bool = True


@dataclass
class SuppressionStats:
    """How many conflict byte-ranges each mechanism removed."""

    tls_suppressed: int = 0
    stack_suppressed: int = 0
    survived: int = 0
    fully_suppressed_pairs: int = 0
    tls_gen_warnings: int = 0


class SuppressionEngine:
    """Applies the analysis-time suppressions (TLS + stack) to candidates,
    by the regions of ``space`` (the run's, or a loaded trace's,
    :class:`~repro.machine.memory.AddressSpace`)."""

    def __init__(self, space: Optional[AddressSpace],
                 config: Optional[SuppressionConfig] = None) -> None:
        self.space = space
        self.config = config or SuppressionConfig()
        self.stats = SuppressionStats()

    # -- recording-time filter (used by the tool's on_access) ----------------

    def symbol_filtered(self, symbol_name: str) -> bool:
        """True when accesses in ``symbol_name`` must be dropped."""
        from repro.machine.debuginfo import DebugInfo
        cfg = self.config
        if cfg.instrument_list and not DebugInfo.matches_any(
                symbol_name, cfg.instrument_list):
            return True
        return DebugInfo.matches_any(symbol_name, cfg.ignore_list)

    # -- ahead-of-time elision gate (see repro.vex.elide) ---------------------

    def site_elidable(self, klass: str) -> bool:
        """Would this engine suppress every conflict of a provably private
        site of lattice class ``klass``?

        The per-site decision the compile-time pre-pass takes *instead of*
        the per-piece :meth:`filter_all` classification below — gated on
        the same per-class toggles, so elision is always a subset of what
        the runtime filters would have removed.
        """
        from repro.vex.elide import ElisionPlan
        return ElisionPlan(self.config).site_elidable(klass)

    # -- analysis-time filters -------------------------------------------------

    def filter_all(self, table: ConflictTable) -> List[RaceCandidate]:
        """Drop the suppressed pieces of every conflict row at once.

        Returns one :class:`RaceCandidate` per pair with surviving bytes, in
        key order; pairs whose every piece is suppressed are counted in
        ``stats.fully_suppressed_pairs`` and never materialized.
        """
        reg = get_registry()
        s = self.stats
        with reg.phase("suppress"):
            stack, tls = self._classify(table)
            dropped = stack | tls
            starts = table.pair_starts()
            # a pair survives when any of its pieces does
            kept = _np.logical_or.reduceat(~dropped, starts)
            n_stack, n_tls = int(stack.sum()), int(tls.sum())
            n_survived = int(kept.sum())
            n_full = int(kept.shape[0]) - n_survived
            s.stack_suppressed += n_stack
            s.tls_suppressed += n_tls
            s.survived += n_survived
            s.fully_suppressed_pairs += n_full
            if _PROF.enabled or _TRACER.enabled:
                _emit_events(table, starts, stack, tls, kept)
            out = table.select(~dropped).candidates()
        reg.counter("suppress.drop.tls").inc(n_tls)
        reg.counter("suppress.drop.stack").inc(n_stack)
        reg.counter("suppress.survived").inc(n_survived)
        reg.counter("suppress.fully_suppressed_pairs").inc(n_full)
        return out

    def stack_local(self, segs: Sequence[Segment], seg: _np.ndarray,
                    lo: _np.ndarray, hi: _np.ndarray) -> _np.ndarray:
        """Per access interval ``[lo, hi)`` of segment ``segs[seg]``: did
        the segment reach it only through frames it pushed itself?

        An interval is local when it lies wholly inside one stack region
        and :func:`_stack_local_rows` holds for it and its own segment;
        nothing is local when the stack rule is off or there is no
        address space.
        A conflict piece shared by two local intervals then lies in that
        one region, owned by both segments' thread, and inside both IV-D
        ranges, so :meth:`filter_all` would suppress it: Algorithm 1 need
        not check a pair that shares bytes only between local intervals.
        Judged on addresses, never on ranks: a rank does not say where an
        interval ends against a stack bound or start pointer.
        """
        local = _np.zeros(lo.shape[0], dtype=bool)
        regions = self.space.regions if self.space is not None else []
        if not (self.config.suppress_stack and regions and local.shape[0]):
            return local
        rows, owner, end = _in_regions(regions, lo, RegionKind.STACK)
        lo, hi, side = lo[rows], hi[rows], seg[rows]
        local[rows] = (hi <= end) & _stack_local_rows(
            owner, lo, hi, *(c[side] for c in _segment_columns(segs)))
        return local

    def _classify(self, table: ConflictTable
                  ) -> Tuple[_np.ndarray, _np.ndarray]:
        """Per-row masks: (stack-suppressed, TLS-suppressed)."""
        n = len(table)
        stack = _np.zeros(n, dtype=bool)
        tls = _np.zeros(n, dtype=bool)
        cfg = self.config
        regions = self.space.regions          # sorted by base
        if not (n and regions and (cfg.suppress_stack or cfg.suppress_tls)):
            return stack, tls
        lo, hi = table.lo, table.hi
        if cfg.suppress_stack:
            rows, owner, _end = _in_regions(regions, lo, RegionKind.STACK)
            if rows.shape[0]:
                local = _np.ones(rows.shape[0], dtype=bool)
                cols = _segment_columns(table.segs)
                for side in (table.i[rows], table.j[rows]):
                    local &= _stack_local_rows(owner, lo[rows], hi[rows],
                                               *(c[side] for c in cols))
                stack[rows[local]] = True
        if cfg.suppress_tls:
            segs = table.segs
            rows, _owner, _end = _in_regions(regions, lo, RegionKind.TLS)
            # the scalar residue: TLS pieces are few, and the DTV
            # generation warning needs each pair's snapshots
            for r in rows.tolist():
                tls[r] = self._tls_suppressed(
                    int(lo[r]), int(hi[r]), segs[int(table.i[r])],
                    segs[int(table.j[r])])
        return stack, tls

    def _tls_suppressed(self, lo: int, hi: int, s1: Segment,
                        s2: Segment) -> bool:
        """Same thread + same DTV ⇒ the 'conflict' is one thread's own TLS."""
        if s1.thread_id != s2.thread_id:
            return False
        snap1, snap2 = s1.tls_snapshot, s2.tls_snapshot
        if snap1 is None or snap2 is None:
            return False
        if snap1.generation != snap2.generation:
            # DTV churn between the segments: the paper's gen-number warning
            self.stats.tls_gen_warnings += 1
        covered = snap1.covers(lo, hi - lo) and snap2.covers(lo, hi - lo)
        if not covered:
            # e.g. a dynamic block allocated+freed inside the segment never
            # made it into the snapshot: conflict survives (paper limitation)
            return False
        return snap1.dtv == snap2.dtv and snap1.tcb == snap2.tcb

    def stats_doc(self) -> dict:
        """Analysis-time drop counts per mechanism (Section IV classes)."""
        s = self.stats
        return {
            "tls": s.tls_suppressed,
            "stack": s.stack_suppressed,
            "survived": s.survived,
            "fully_suppressed_pairs": s.fully_suppressed_pairs,
            "tls_gen_warnings": s.tls_gen_warnings,
        }


#: owner of a region no thread owns: equal to no segment's thread id
_NO_OWNER = _np.iinfo(_np.int64).min


def _in_regions(regions: Sequence[Region], lo: _np.ndarray,
                kind: RegionKind
                ) -> Tuple[_np.ndarray, _np.ndarray, _np.ndarray]:
    """The rows of ``lo`` whose address lies in a region of ``kind``, with
    that region's owner thread and end: ``(rows, owner, end)``.

    ``regions`` are disjoint and sorted by base, so an address lies in the
    last region based at or below it, if it lies before that region's end.
    """
    count = len(regions)
    bases = _np.fromiter((r.base for r in regions), _np.int64, count)
    ends = _np.fromiter((r.end for r in regions), _np.int64, count)
    ridx = _np.searchsorted(bases, lo, side="right") - 1
    mapped = ridx >= 0
    mapped[mapped] = lo[mapped] < ends[ridx[mapped]]
    of_kind = _np.fromiter((r.kind == kind for r in regions), bool, count)
    rows = _np.flatnonzero(mapped & of_kind[ridx])
    ridx = ridx[rows]
    owner = _np.fromiter(
        (_NO_OWNER if r.owner_thread is None else r.owner_thread
         for r in regions), _np.int64, count)
    return rows, owner[ridx], ends[ridx]


def _segment_columns(segs: Sequence[Segment]) -> Tuple[_np.ndarray, ...]:
    """Per-segment IV-D inputs: thread, stack bounds, stack pointer at start."""
    n = len(segs)
    return (_np.fromiter((s.thread_id for s in segs), _np.int64, n),
            _np.fromiter((s.stack_bounds[0] for s in segs), _np.int64, n),
            _np.fromiter((s.stack_bounds[1] for s in segs), _np.int64, n),
            _np.fromiter((s.sp_at_start for s in segs), _np.int64, n))


def _stack_local_rows(owner, lo, hi, thread, stack_lo, stack_hi, sp):
    """Did each row's segment reach its piece only through frames it pushed
    itself?

    Stacks grow downward: an address *below* the stack pointer registered
    at segment start belongs to a frame created inside the segment.  The
    segment must also have executed on the thread owning the stack —
    otherwise it reached the bytes through a shared pointer and the
    conflict is real (TMB 1001-stack.1).  A piece straddling the start
    stack pointer is not local.
    """
    return ((owner == thread) & (stack_lo <= lo) & (hi <= stack_hi)
            & (hi <= sp))


def _emit_events(table: ConflictTable, starts: _np.ndarray,
                 stack: _np.ndarray, tls: _np.ndarray,
                 kept: _np.ndarray) -> None:
    """Profiler counts and tracer instants, pair by pair, piece by piece."""
    segs = table.segs
    i, j = table.i.tolist(), table.j.tolist()
    lo, hi = table.lo.tolist(), table.hi.tolist()
    stack_l, tls_l = stack.tolist(), tls.tolist()
    bounds = starts.tolist() + [len(table)]
    for g, pair_kept in enumerate(kept.tolist()):
        first = bounds[g]
        s1, s2 = segs[i[first]], segs[j[first]]
        for r in range(first, bounds[g + 1]):
            if stack_l[r]:
                name = "suppress.stack"
            elif tls_l[r]:
                name = "suppress.tls"
            else:
                continue
            if _PROF.enabled:
                _PROF.count(name, s1.label())
            if _TRACER.enabled:
                _TRACER.instant(name, cat="suppress",
                                args={"lo": lo[r], "hi": hi[r],
                                      "s1": s1.id, "s2": s2.id})
        if _PROF.enabled:
            _PROF.count("suppress.survived" if pair_kept
                        else "suppress.pair-dropped", s1.label())
