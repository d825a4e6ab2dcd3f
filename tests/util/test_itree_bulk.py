"""Tests for ``coalesce_sorted_pairs`` (repro.util.intervals).

It is the recorder's drain: a segment's buffered ranges and its current
intervals are sorted together and coalesced by it into the segment's new
access set.  Its contract is exact equivalence with a per-interval
:meth:`IntervalTree.insert` loop (the paper's Section III-B structure),
used as the oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.util.intervals import coalesce_sorted_pairs
from repro.util.itree import IntervalTree


def inserted(pairs):
    t = IntervalTree()
    for lo, hi in pairs:
        t.insert(lo, hi)
    return t


raw_pairs = st.lists(st.tuples(st.integers(0, 500), st.integers(1, 40)),
                     max_size=60).map(
    lambda xs: [(lo, lo + n) for lo, n in xs])


class TestCoalesceSortedPairs:
    def test_empty(self):
        assert coalesce_sorted_pairs([]) == []

    def test_merges_overlap_and_adjacency(self):
        assert coalesce_sorted_pairs([(0, 4), (4, 8), (6, 10), (12, 14)]) \
            == [(0, 10), (12, 14)]

    def test_drops_empty_ranges(self):
        assert coalesce_sorted_pairs([(0, 0), (1, 3), (5, 5)]) == [(1, 3)]

    @given(raw_pairs)
    @settings(max_examples=80, deadline=None)
    def test_matches_insert_oracle(self, pairs):
        assert coalesce_sorted_pairs(sorted(pairs)) == inserted(pairs).pairs()
