"""Unit + property tests for the AVL interval tree (tests.util.itree).

The property tests use :class:`IntervalSet` as an oracle: any sequence of
inserts must leave the tree covering exactly the same bytes, with invariants
(AVL balance, disjoint coalesced nodes, correct augmentation) intact.
"""

from hypothesis import given, settings, strategies as st

from repro.util.intervals import IntervalSet
from tests.util.itree import IntervalTree


def build(pairs):
    t = IntervalTree()
    for lo, hi in pairs:
        t.insert(lo, hi)
    return t


class TestInsertCoalescing:
    def test_single(self):
        t = build([(0, 10)])
        assert t.pairs() == [(0, 10)]
        assert len(t) == 1
        assert t.total_bytes == 10

    def test_adjacent_merge(self):
        t = build([(0, 10), (10, 20)])
        assert t.pairs() == [(0, 20)]
        assert len(t) == 1

    def test_overlap_merge(self):
        t = build([(0, 10), (5, 15)])
        assert t.pairs() == [(0, 15)]

    def test_dense_sweep_one_node(self):
        """A segment sweeping a dense array compacts to a single node (Fig. 3)."""
        t = IntervalTree()
        for i in range(0, 1000, 8):
            t.insert(i, i + 8)
        assert len(t) == 1
        assert t.pairs() == [(0, 1000)]

    def test_reverse_sweep_one_node(self):
        t = IntervalTree()
        for i in range(992, -1, -8):
            t.insert(i, i + 8)
        assert len(t) == 1

    def test_bridging_insert_absorbs_many(self):
        t = build([(0, 2), (10, 12), (20, 22), (30, 32)])
        assert len(t) == 4
        t.insert(1, 31)
        assert t.pairs() == [(0, 32)]
        assert len(t) == 1

    def test_disjoint_stay_separate(self):
        t = build([(0, 5), (10, 15), (20, 25)])
        assert len(t) == 3
        assert t.total_bytes == 15

    def test_empty_insert_noop(self):
        t = build([(0, 5)])
        t.insert(8, 8)
        assert t.pairs() == [(0, 5)]


class TestQueries:
    def test_overlaps(self):
        t = build([(10, 20), (30, 40)])
        assert t.overlaps(15, 16)
        assert t.overlaps(0, 11)
        assert t.overlaps(39, 100)
        assert not t.overlaps(20, 30)
        assert not t.overlaps(0, 10)
        assert not t.overlaps(40, 50)

    def test_contains_point(self):
        t = build([(10, 20)])
        assert t.contains_point(10)
        assert t.contains_point(19)
        assert not t.contains_point(20)

    def test_covers(self):
        t = build([(0, 10), (20, 30)])
        assert t.covers(0, 10)
        assert t.covers(3, 7)
        assert not t.covers(5, 25)
        assert not t.covers(15, 18)
        assert t.covers(5, 5)   # empty range trivially covered

    def test_stab(self):
        t = build([(0, 5), (10, 15), (20, 25)])
        hits = t.stab(3, 21)
        assert [(h.lo, h.hi) for h in hits] == [(0, 5), (10, 15), (20, 25)]
        assert t.stab(5, 10) == []

    def test_iteration_in_order(self):
        t = build([(20, 25), (0, 5), (10, 15)])
        assert t.pairs() == [(0, 5), (10, 15), (20, 25)]


class TestTreeTreeOps:
    def test_intersects_tree(self):
        a = build([(0, 10), (100, 110)])
        b = build([(50, 105)])
        assert a.intersects_tree(b)
        assert b.intersects_tree(a)

    def test_no_intersection(self):
        a = build([(0, 10)])
        b = build([(10, 20)])
        assert not a.intersects_tree(b)

    def test_intersection_tree_contents(self):
        a = build([(0, 10), (20, 30)])
        b = build([(5, 25)])
        assert a.intersection_tree(b).pairs() == [(5, 10), (20, 25)]

    def test_intersection_empty_tree(self):
        a = build([(0, 10)])
        b = IntervalTree()
        assert not a.intersects_tree(b)
        assert a.intersection_tree(b).pairs() == []


class TestBalance:
    def test_logarithmic_height_ascending(self):
        t = IntervalTree()
        for i in range(1024):
            t.insert(i * 10, i * 10 + 5)   # never coalesce
        assert len(t) == 1024
        assert t.height <= 2 * 10 + 2      # ~1.44 log2(n) for AVL
        t.check_invariants()

    def test_logarithmic_height_descending(self):
        t = IntervalTree()
        for i in range(1023, -1, -1):
            t.insert(i * 10, i * 10 + 5)
        assert len(t) == 1024
        assert t.height <= 22
        t.check_invariants()


pair_lists = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 40)).map(
        lambda t: (t[0], t[0] + t[1])),
    max_size=60,
)


class TestPropertyVsOracle:
    @given(pair_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_interval_set_oracle(self, pairs):
        tree = build(pairs)
        oracle = IntervalSet.from_pairs(pairs)
        assert tree.pairs() == oracle.pairs()
        assert tree.total_bytes == oracle.total_bytes
        tree.check_invariants()

    @given(pair_lists, st.integers(0, 550), st.integers(0, 550))
    @settings(max_examples=200, deadline=None)
    def test_overlap_query_matches_oracle(self, pairs, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = build(pairs)
        oracle = IntervalSet.from_pairs(pairs)
        assert tree.overlaps(lo, hi) == oracle.overlaps_range(lo, hi)
        assert tree.covers(lo, hi) == oracle.covers_range(lo, hi)

    @given(pair_lists, pair_lists)
    @settings(max_examples=150, deadline=None)
    def test_tree_intersection_matches_set_intersection(self, pa, pb):
        ta, tb = build(pa), build(pb)
        sa, sb = IntervalSet.from_pairs(pa), IntervalSet.from_pairs(pb)
        expected = sa.intersection(sb)
        assert ta.intersection_tree(tb) == expected
        assert ta.intersects_tree(tb) == bool(expected)
