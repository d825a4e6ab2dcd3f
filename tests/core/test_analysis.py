"""Tests for the determinacy-race pass (Algorithm 1).

Includes property tests asserting the address-indexed pass, with one
worker and with several, produces the candidate set of the faithful
all-pairs pass (the test oracle in ``tests/core/analysis_oracle.py``) on
random graphs.
"""

from hypothesis import given, settings, strategies as st

from repro.core.analysis import find_races
from repro.core.segments import SegmentGraph
from tests.core.analysis_oracle import find_races_naive


def make_graph(segments, edges, accesses):
    """segments: count; edges: (i,j) pairs; accesses: (seg, lo, hi, w)."""
    g = SegmentGraph()
    segs = [g.new_segment(thread_id=i % 4, task=None, kind="task")
            for i in range(segments)]
    for i, j in edges:
        g.add_edge(segs[i], segs[j])
    for idx, lo, hi, w in accesses:
        segs[idx].record(lo, hi - lo, w, None)
    return g, segs


def keys(cands):
    return sorted((c.key(), tuple(c.ranges.pairs())) for c in cands)


def races(g, workers=1):
    return find_races(g, workers=workers).candidates


class TestAlgorithmOne:
    def test_write_write_conflict(self):
        g, segs = make_graph(2, [], [(0, 0, 8, True), (1, 4, 12, True)])
        cands = find_races_naive(g)
        assert len(cands) == 1
        assert cands[0].ranges.pairs() == [(4, 8)]

    def test_write_read_conflict(self):
        g, _ = make_graph(2, [], [(0, 0, 8, True), (1, 0, 8, False)])
        assert len(find_races_naive(g)) == 1

    def test_read_read_no_conflict(self):
        g, _ = make_graph(2, [], [(0, 0, 8, False), (1, 0, 8, False)])
        assert find_races_naive(g) == []

    def test_ordered_pair_not_reported(self):
        g, _ = make_graph(2, [(0, 1)], [(0, 0, 8, True), (1, 0, 8, True)])
        assert find_races_naive(g) == []

    def test_transitively_ordered_not_reported(self):
        g, _ = make_graph(3, [(0, 1), (1, 2)],
                          [(0, 0, 8, True), (2, 0, 8, True)])
        assert find_races_naive(g) == []

    def test_disjoint_ranges_not_reported(self):
        g, _ = make_graph(2, [], [(0, 0, 8, True), (1, 8, 16, True)])
        assert find_races_naive(g) == []

    def test_diamond_branches_conflict(self):
        g, _ = make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                          [(1, 0, 8, True), (2, 0, 8, True)])
        cands = find_races_naive(g)
        assert len(cands) == 1

    def test_multiple_conflicting_pairs(self):
        g, _ = make_graph(3, [], [(0, 0, 8, True), (1, 0, 8, True),
                                  (2, 0, 8, True)])
        assert len(find_races_naive(g)) == 3

    def test_symmetric_read_write(self):
        """s1 reads what s2 writes AND s2 reads what s1 writes."""
        g, _ = make_graph(2, [], [(0, 0, 8, True), (0, 16, 24, False),
                                  (1, 16, 24, True), (1, 0, 8, False)])
        cands = find_races_naive(g)
        assert len(cands) == 1
        assert cands[0].ranges.pairs() == [(0, 8), (16, 24)]


class TestIndexedEquivalence:
    def test_simple_case(self):
        g, _ = make_graph(3, [(0, 1)],
                          [(0, 0, 8, True), (1, 0, 8, True), (2, 4, 12, True)])
        assert keys(find_races_naive(g)) == keys(races(g))

    def test_parallel_matches(self):
        g, _ = make_graph(6, [(0, 1), (2, 3)],
                          [(i, (i % 3) * 8, (i % 3) * 8 + 12, i % 2 == 0)
                           for i in range(6)])
        assert keys(find_races_naive(g)) == keys(races(g, workers=2))

    @given(
        st.integers(2, 10),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 96),
                           st.integers(1, 32), st.booleans()), max_size=24),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_equivalence(self, n, raw_edges, raw_accs):
        edges = [(min(i, j), max(i, j)) for i, j in raw_edges
                 if i != j and i < n and j < n]
        accs = [(idx % n, lo, lo + sz, w) for idx, lo, sz, w in raw_accs]
        g, _ = make_graph(n, edges, accs)
        expected = keys(find_races_naive(g))
        assert keys(races(g)) == expected
        assert keys(races(g, workers=3)) == expected


class TestParallelWorkerClamp:
    """The pool is clamped to the chunk count and both figures are logged."""

    def _gauges(self):
        from repro.obs.metrics import get_registry
        reg = get_registry()
        return (reg.gauge("analysis.workers_requested").value,
                reg.gauge("analysis.workers_effective").value)

    def test_workers_beyond_chunks_are_clamped(self):
        # 3 conflicting pairs -> 1 chunk of pairs; 16 requested workers
        g, _ = make_graph(3, [], [(0, 0, 8, True), (1, 0, 8, True),
                                  (2, 0, 8, True)])
        cands = races(g, workers=16)
        assert len(cands) == 3
        requested, effective = self._gauges()
        assert requested == 16
        assert effective == 1

    def test_effective_zero_when_no_pairs(self):
        g, _ = make_graph(2, [], [(0, 0, 8, True), (1, 100, 108, True)])
        assert races(g, workers=8) == []
        requested, effective = self._gauges()
        assert requested == 8
        assert effective == 0

    def test_result_identical_across_worker_counts(self):
        g, _ = make_graph(5, [(0, 1)],
                          [(i, (i % 2) * 8, (i % 2) * 8 + 8, True)
                           for i in range(5)])
        expected = keys(races(g, workers=1))
        for w in (2, 3, 64):
            assert keys(races(g, workers=w)) == expected


class TestScaling:
    def test_indexed_skips_disjoint_segments(self):
        """Many segments with disjoint ranges produce no candidate pairs."""
        g = SegmentGraph()
        for i in range(200):
            s = g.new_segment(thread_id=0, task=None, kind="task")
            s.record(i * 100, 8, True, None)
        assert races(g) == []

    def test_indexed_finds_the_needle(self):
        g = SegmentGraph()
        for i in range(100):
            s = g.new_segment(thread_id=0, task=None, kind="task")
            s.record(i * 100, 8, True, None)
        needle = g.new_segment(thread_id=1, task=None, kind="task")
        needle.record(4200, 8, True, None)       # collides with segment 42
        cands = races(g)
        assert len(cands) == 1
        assert {cands[0].s1.id, cands[0].s2.id} == {42, needle.id}
