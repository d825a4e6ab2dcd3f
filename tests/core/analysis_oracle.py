"""Test oracles for Algorithm 1, the pair check, happens-before and the
recorder.

The production code finds candidate pairs with array operations
(:meth:`repro.core.npkernel.KernelContext.candidate_pairs`), checks them in
batches (:meth:`~repro.core.npkernel.KernelContext.check_pairs`), answers
happens-before from order-maintenance labels where they are exact, and
records accesses through a write-combining buffer.  This module keeps the
straightforward forms those replaced, so tests can check that both give
the same answers:

* :func:`candidate_pairs` — the pure-Python candidate sweep;
* :func:`check_pairs_python` — one ``graph.ordered`` query and three
  interval merges per pair (:func:`loop_check_pairs` is the drop-in for
  ``KernelContext.check_pairs``);
* :func:`all_pairs` — every segment pair with a write, the faithful
  Algorithm 1's :math:`O(n^2)` candidate set (a drop-in for
  ``KernelContext.candidate_pairs``, so the production pass runs as the
  all-pairs oracle);
* :func:`naive_table` / :func:`find_races_naive` — the faithful Algorithm
  1 as a standalone pass, for direct comparisons;
* :func:`assert_hb_matches_dp` — every happens-before tier against the
  bitmask reachability DP;
* :class:`TreeSegment` / :func:`assert_sets_match_log` — the recorder's
  flat read and write sets against one :class:`IntervalTree` insert per
  access of the same access log (the paper's Section III-B structure).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.analysis import (ConflictTable, RaceCandidate, Rows,
                                 _conflict_ranges)
from repro.core.npkernel import KernelContext
from repro.core.segments import Segment, SegmentGraph
from repro.util.itree import IntervalTree


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
        ranges = _conflict_ranges(s1, s2)
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


def naive_table(graph: SegmentGraph) -> ConflictTable:
    """Faithful Algorithm 1: every pair with a write, filtered by HB."""
    graph.prepare_queries()
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


def assert_hb_matches_dp(graph: SegmentGraph) -> None:
    """Every HB tier agrees with the reachability DP on every segment pair.

    ``ordered`` and ``happens_before`` are swept twice: without a label
    snapshot, so the order-maintenance index answers wherever its hint
    does, then after :meth:`SegmentGraph.prepare_queries`, so an exact
    graph answers from the label snapshot.  The batched rank or matrix
    compare of :class:`KernelContext` is checked on the same pairs.
    """
    reach = graph._reachability()
    segs = graph.segments

    def sweep(tier: str) -> None:
        for a in segs:
            for b in segs:
                if a is b:
                    continue
                ab = bool(reach[a.id] >> b.id & 1)
                ba = bool(reach[b.id] >> a.id & 1)
                assert graph.happens_before(a, b) == ab, (tier, a.id, b.id)
                assert graph.ordered(a, b) == (ab or ba), (tier, a.id, b.id)

    graph._hb_labels = None
    sweep("index")
    graph.prepare_queries()
    sweep("label")
    ctx = KernelContext(graph, segs)
    ctx.prepare_hb()
    ii, jj = np.triu_indices(len(segs), 1)
    mask = ctx.ordered_mask(ii.astype(np.int64), jj.astype(np.int64))
    if mask is not None:
        want = [bool(reach[segs[i].id] >> segs[j].id & 1
                     or reach[segs[j].id] >> segs[i].id & 1)
                for i, j in zip(ii.tolist(), jj.tolist())]
        assert mask.tolist() == want, ctx.hb_tier


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
