"""Test oracles for Algorithm 1, the pair check, happens-before and the
recorder.

The production code finds candidate pairs with array operations
(:meth:`repro.core.npkernel.KernelContext.candidate_pairs`), checks them in
batches (:meth:`~repro.core.npkernel.KernelContext.check_pairs`), answers
happens-before from a bitmask reachability DP, and records accesses
through a write-combining buffer.  This module keeps the straightforward
forms those replaced, so tests can check that both give the same answers:

* :func:`candidate_pairs` — the pure-Python candidate sweep;
* :func:`conflict_ranges` — one pair's conflict set by three linear
  interval merges;
* :func:`check_pairs_python` — one ``graph.ordered`` query and
  :func:`conflict_ranges` per pair (:func:`loop_check_pairs` is the
  drop-in for ``KernelContext.check_pairs``);
* :func:`all_pairs` — every segment pair with a write, the faithful
  Algorithm 1's :math:`O(n^2)` candidate set (a drop-in for
  ``KernelContext.candidate_pairs``, so the production pass runs as the
  all-pairs oracle);
* :func:`all_pairs_outside_frames` — :func:`all_pairs` less the pairs
  that share bytes only between intervals local to their own segments'
  frames, by :func:`interval_is_stack_local`, Section IV-D's interval rule
  written one interval at a time (the drop-in for a run whose stack rule
  is on);
* :func:`naive_table` / :func:`find_races_naive` — the faithful Algorithm
  1 as a standalone pass, for direct comparisons;
* :func:`assert_hb_matches_dp` — every happens-before answer (per pair,
  witness evidence, packed rows) against one breadth-first search per
  segment over the graph's successor lists, sharing no code with the DP;
* :class:`TreeSegment` / :func:`assert_sets_match_log` — the recorder's
  flat read and write sets against one :class:`IntervalTree` insert per
  access of the same access log (the paper's Section III-B structure).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.analysis import ConflictTable, RaceCandidate, Rows
from repro.core.npkernel import KernelContext
from repro.core.segments import Segment, SegmentGraph
from repro.machine.memory import RegionKind
from repro.util.intervals import IntervalSet
from tests.util.itree import IntervalTree


def write_index(segs: Sequence[Segment]) -> List[Tuple[int, int, int, bool]]:
    """Flatten every access interval into (lo, hi, seg_index, is_write)."""
    events: List[Tuple[int, int, int, bool]] = []
    for idx, seg in enumerate(segs):
        for iv in seg.writes:
            events.append((iv.lo, iv.hi, idx, True))
        for iv in seg.reads:
            events.append((iv.lo, iv.hi, idx, False))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def candidate_pairs(segs: Sequence[Segment]) -> Set[Tuple[int, int]]:
    """Segment index pairs that share at least one byte with >=1 write.

    Sweep over sorted intervals with an active set pruned by end address.
    """
    events = write_index(segs)
    pairs: Set[Tuple[int, int]] = set()
    active: List[Tuple[int, int, int, bool]] = []     # (hi, lo, idx, is_write)
    for lo, hi, idx, is_write in events:
        active = [a for a in active if a[0] > lo]     # drop non-overlapping
        for ahi, alo, aidx, awrite in active:
            if aidx != idx and (is_write or awrite):
                pairs.add((aidx, idx) if aidx < idx else (idx, aidx))
        active.append((hi, lo, idx, is_write))
    return pairs


def conflict_ranges(s1: Segment, s2: Segment) -> IntervalSet:
    """``(s1.w ∩ (s2.r ∪ s2.w)) ∪ (s2.w ∩ s1.r)`` as a normalized set.

    Each of the three intersections is one linear merge of the segments'
    sorted interval lists; the results are unioned in one pass.
    """
    w1, w2 = s1.writes, s2.writes
    out = w1.intersection(w2)
    for part in (w1.intersection(s2.reads),
                 w2.intersection(s1.reads)):
        for lo, hi in part.pairs():
            out.add(lo, hi)
    return out


def check_pairs_python(graph: SegmentGraph, segs: Sequence[Segment],
                       pairs: Iterable[Tuple[int, int]]
                       ) -> Tuple[Rows, int, int]:
    """One HB query and three merges per pair: ``(rows, checked, ordered)``."""
    ci: List[int] = []
    cj: List[int] = []
    clo: List[int] = []
    chi: List[int] = []
    checked = ordered = 0
    for i, j in pairs:
        checked += 1
        s1, s2 = segs[i], segs[j]
        if graph.ordered(s1, s2):
            ordered += 1
            continue
        ranges = conflict_ranges(s1, s2)
        n = len(ranges)
        if n:
            ci += [i] * n
            cj += [j] * n
            clo += ranges._los
            chi += ranges._his
    return (ci, cj, clo, chi), checked, ordered


def loop_check_pairs(ctx: KernelContext, ii: np.ndarray,
                     jj: np.ndarray) -> Tuple[Rows, int]:
    """:func:`check_pairs_python` with ``KernelContext.check_pairs``'s
    signature, to monkeypatch over the batched check."""
    rows, _checked, ordered = check_pairs_python(
        ctx.graph, ctx.segs, zip(ii.tolist(), jj.tolist()))
    return rows, ordered


def all_pairs(ctx: KernelContext) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair ``i < j`` of ``ctx.segs`` where either segment writes,
    sorted by ``(i, j)``: ``KernelContext.candidate_pairs``'s signature,
    to monkeypatch over the candidate sweep."""
    writes = np.array([bool(s.writes) for s in ctx.segs], dtype=bool)
    ii, jj = np.triu_indices(len(ctx.segs), 1)
    keep = writes[ii] | writes[jj]
    return ii[keep].astype(np.int64), jj[keep].astype(np.int64)


def interval_is_stack_local(space, seg: Segment, lo: int, hi: int) -> bool:
    """Did ``seg`` reach ``[lo, hi)`` only through frames it pushed itself?

    The interval lies wholly inside one stack region owned by ``seg``'s
    thread, and inside ``seg``'s stack bounds below its start stack
    pointer (stacks grow downward).
    """
    region = space.region_at(lo)
    if region is None or region.kind != RegionKind.STACK:
        return False
    if region.owner_thread != seg.thread_id or hi > region.end:
        return False
    stack_lo, stack_hi = seg.stack_bounds
    return stack_lo <= lo and hi <= stack_hi and hi <= seg.sp_at_start


def all_pairs_outside_frames(engine):
    """A drop-in for ``KernelContext.candidate_pairs`` over ``engine``'s
    address space: :func:`all_pairs`, less every pair whose overlapping
    intervals (one of them a write) are all stack-local to their own
    segments.  With no engine, no space or the stack rule off it is
    :func:`all_pairs`."""

    def candidate_pairs(ctx: KernelContext) -> Tuple[np.ndarray, np.ndarray]:
        ii, jj = all_pairs(ctx)
        if engine is None or engine.space is None \
                or not engine.config.suppress_stack:
            return ii, jj
        space = engine.space
        classed = [[(lo, hi, is_write,
                     interval_is_stack_local(space, seg, lo, hi))
                    for is_write, ivs in ((True, seg.writes),
                                          (False, seg.reads))
                    for lo, hi in ivs.pairs()]
                   for seg in ctx.segs]

        def local_only(a: int, b: int) -> bool:
            overlaps = [l1 and l2
                        for lo1, hi1, w1, l1 in classed[a]
                        for lo2, hi2, w2, l2 in classed[b]
                        if lo1 < hi2 and lo2 < hi1 and (w1 or w2)]
            return bool(overlaps) and all(overlaps)

        keep = np.array([not local_only(a, b)
                         for a, b in zip(ii.tolist(), jj.tolist())],
                        dtype=bool)
        return ii[keep], jj[keep]

    return candidate_pairs


def naive_table(graph: SegmentGraph) -> ConflictTable:
    """Faithful Algorithm 1: every pair with a write, filtered by HB."""
    segs = [s for s in graph.segments if s.has_accesses]
    writes = [bool(s.writes) for s in segs]
    n = len(segs)
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n)
             if writes[i] or writes[j])
    rows, _checked, _ordered = check_pairs_python(graph, segs, pairs)
    return ConflictTable.build(segs, [rows])


def find_races_naive(graph: SegmentGraph) -> List[RaceCandidate]:
    """:func:`naive_table` as a sorted candidate list."""
    return naive_table(graph).candidates()


def descendants(graph: SegmentGraph) -> List[Set[int]]:
    """Every segment's descendant ids, by a breadth-first search over
    ``graph._succ`` from each segment in turn."""
    out: List[Set[int]] = []
    for sid in range(len(graph.segments)):
        seen: Set[int] = set()
        frontier = list(graph._succ[sid])
        while frontier:
            nxt = []
            for t in frontier:
                if t not in seen:
                    seen.add(t)
                    nxt.extend(graph._succ[t])
            frontier = nxt
        out.append(seen)
    return out


def assert_hb_matches_dp(graph: SegmentGraph) -> None:
    """Every happens-before answer agrees with :func:`descendants` on every
    segment pair: ``ordered``, ``happens_before``, the reachability
    evidence of ``explain_unordered``, and the packed-row mask of
    :meth:`KernelContext.ordered_mask`."""
    desc = descendants(graph)
    segs = graph.segments
    for a in segs:
        for b in segs:
            if a is b:
                continue
            ab, ba = b.id in desc[a.id], a.id in desc[b.id]
            assert graph.happens_before(a, b) == ab, (a.id, b.id)
            assert graph.ordered(a, b) == (ab or ba), (a.id, b.id)
            why = graph.explain_unordered(a, b)
            assert (why["a_reaches_b"], why["b_reaches_a"]) == (ab, ba), \
                (a.id, b.id)
    ctx = KernelContext(graph, segs)
    ctx.prepare_hb()
    ii, jj = np.triu_indices(len(segs), 1)
    mask = ctx.ordered_mask(ii.astype(np.int64), jj.astype(np.int64))
    want = [segs[j].id in desc[segs[i].id] or segs[i].id in desc[segs[j].id]
            for i, j in zip(ii.tolist(), jj.tolist())]
    assert mask.tolist() == want


class TreeSegment:
    """A segment's access sets as the paper's two interval trees, recorded
    with one coalescing insert per access — the recorder's oracle."""

    def __init__(self) -> None:
        self.reads = IntervalTree()
        self.writes = IntervalTree()

    def record_immediate(self, addr: int, size: int, is_write: bool) -> None:
        (self.writes if is_write else self.reads).insert(addr, addr + size)


def replay_access_log(log: Iterable[Tuple[int, int, int, bool]]
                      ) -> Dict[int, TreeSegment]:
    """Replay ``SegmentBuilder.access_log`` through per-access tree inserts,
    keyed by segment id."""
    segs: Dict[int, TreeSegment] = {}
    for sid, addr, size, is_write in log:
        seg = segs.get(sid)
        if seg is None:
            seg = segs[sid] = TreeSegment()
        seg.record_immediate(addr, size, is_write)
    return segs


def assert_sets_match_log(graph: SegmentGraph,
                          log: Iterable[Tuple[int, int, int, bool]]) -> None:
    """The recorded read and write sets equal the log's per-access tree
    replay, segment by segment."""
    replayed = replay_access_log(log)
    empty = TreeSegment()
    for seg in graph.segments:
        ref = replayed.pop(seg.id, empty)
        assert seg.reads.pairs() == ref.reads.pairs(), f"seg {seg.id} reads"
        assert seg.writes.pairs() == ref.writes.pairs(), \
            f"seg {seg.id} writes"
    assert not replayed, f"log names unknown segments {sorted(replayed)}"
