"""Microbenchmarks of the core data structures.

Covers the paper's Section III-B claims: interval trees compact dense
accesses and keep O(log n) operations; plus the reachability bitsets that
back the happens-before queries of Algorithm 1.
"""


from repro.core.segments import SegmentGraph
from repro.util.intervals import IntervalSet
from tests.util.itree import IntervalTree


def dense_insert(n):
    t = IntervalTree()
    for i in range(n):
        t.insert(i * 8, i * 8 + 8)
    return t


def sparse_insert(n):
    t = IntervalTree()
    for i in range(n):
        t.insert(i * 64, i * 64 + 8)
    return t


def test_bench_dense_insert(benchmark):
    t = benchmark(dense_insert, 2000)
    assert len(t) == 1                      # fully coalesced (Fig. 3)


def test_bench_sparse_insert(benchmark):
    t = benchmark(sparse_insert, 2000)
    assert len(t) == 2000
    assert t.height <= 24                   # AVL balance


def test_bench_stab_queries(benchmark):
    t = sparse_insert(4000)

    def stab_many():
        hits = 0
        for i in range(0, 4000 * 64, 997):
            hits += t.overlaps(i, i + 4)
        return hits

    assert benchmark(stab_many) > 0


def test_bench_tree_intersection(benchmark):
    a = sparse_insert(1500)
    b = IntervalTree()
    for i in range(1500):
        b.insert(i * 64 + 32, i * 64 + 48)
    common = IntervalTree()
    common.insert(10 * 64, 10 * 64 + 8)

    def intersect():
        return a.intersects_tree(b), a.intersection_tree(common)

    disjoint, overlap = benchmark(intersect)
    assert not disjoint
    assert overlap.total_bytes == 8


def test_bench_interval_set_union(benchmark):
    a = IntervalSet.from_pairs([(i * 64, i * 64 + 8) for i in range(1000)])
    b = IntervalSet.from_pairs([(i * 64 + 8, i * 64 + 16)
                                for i in range(1000)])
    u = benchmark(a.union, b)
    assert len(u) == 1000                   # adjacent pairs coalesce


def test_bench_reachability(benchmark):
    g = SegmentGraph()
    segs = [g.new_segment(thread_id=0, task=None, kind="task")
            for _ in range(1200)]
    for i in range(1, 1200):
        g.add_edge(segs[max(0, i - (i % 7) - 1)], segs[i])

    def query():
        g._reach = None                     # force recompute
        return g.ordered(segs[0], segs[-1])

    assert benchmark(query) in (True, False)
