"""Tests for the vectorized conflict kernel (:mod:`repro.core.npkernel`).

Property tests pin every numpy primitive to the IntervalSet oracle, and the
end-to-end kernel to the all-pairs Python loop of the test oracle
(``tests/core/analysis_oracle.py``) on random graphs.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.analysis import find_races
from repro.core.npkernel import KernelContext, coalesce_arrays, intersect_arrays
from repro.core.segments import SegmentGraph
from repro.util.intervals import IntervalSet
from tests.core.analysis_oracle import (conflict_ranges, descendants,
                                        find_races_naive)

ranges_strategy = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 40)).map(
        lambda t: (t[0], t[0] + t[1])),
    max_size=12)


def to_set(pairs):
    s = IntervalSet()
    for lo, hi in pairs:
        s.add(lo, hi)
    return s


def to_arrays(s: IntervalSet):
    return (np.asarray(s._los, dtype=np.int64),
            np.asarray(s._his, dtype=np.int64))


def make_graph(segments, edges, accesses):
    g = SegmentGraph()
    segs = [g.new_segment(thread_id=i % 4, task=None, kind="task")
            for i in range(segments)]
    for i, j in edges:
        g.add_edge(segs[i], segs[j])
    for idx, lo, hi, w in accesses:
        segs[idx].record(lo, hi - lo, w, None)
    return g


def keys(cands):
    return sorted((c.key(), tuple(c.ranges.pairs())) for c in cands)


class TestPrimitives:
    @given(ranges_strategy)
    @settings(max_examples=200, deadline=None)
    def test_coalesce_matches_intervalset(self, raw):
        oracle = to_set(raw)
        los = np.asarray([lo for lo, _ in raw], dtype=np.int64)
        his = np.asarray([hi for _, hi in raw], dtype=np.int64)
        got_los, got_his = coalesce_arrays(los, his)
        assert got_los.tolist() == oracle._los
        assert got_his.tolist() == oracle._his

    @given(ranges_strategy, ranges_strategy)
    @settings(max_examples=200, deadline=None)
    def test_intersect_matches_intervalset(self, raw_a, raw_b):
        a, b = to_set(raw_a), to_set(raw_b)
        oracle = a.intersection(b)
        los, his = intersect_arrays(*to_arrays(a), *to_arrays(b))
        assert los.tolist() == oracle._los
        assert his.tolist() == oracle._his

    @given(ranges_strategy, ranges_strategy, ranges_strategy, ranges_strategy)
    @settings(max_examples=150, deadline=None)
    def test_conflict_matches_python_formula(self, w1, r1, w2, r2):
        g = make_graph(2, [], [])
        s1, s2 = g.segments
        for lo, hi in w1:
            s1.record(lo, hi - lo, True, None)
        for lo, hi in r1:
            s1.record(lo, hi - lo, False, None)
        for lo, hi in w2:
            s2.record(lo, hi - lo, True, None)
        for lo, hi in r2:
            s2.record(lo, hi - lo, False, None)
        oracle = conflict_ranges(s1, s2)
        ctx = KernelContext(g, [s1, s2])
        ctx.prepare_hb()
        (ci, cj, lo, hi), ordered = ctx.check_pairs(
            np.asarray([0], dtype=np.int64), np.asarray([1], dtype=np.int64))
        assert ordered == 0
        assert list(zip(lo.tolist(), hi.tolist())) == oracle.pairs()
        assert set(ci.tolist()) <= {0} and set(cj.tolist()) <= {1}


@st.composite
def graph_strategy(draw):
    """A random DAG with accesses.  The edges go through a permutation of
    the ids, so ids need not be topological (as in real runs), and the
    addresses sit above a base that may reach past ``2**48`` or up to the
    loader's ``2**63`` bound."""
    n = draw(st.integers(2, 8))
    perm = draw(st.permutations(range(n)))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda t: t[0] < t[1]), max_size=8))
    base = draw(st.sampled_from([0, 2**48 - 64, 2**50, 2**63 - 2**12]))
    accesses = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 60),
                  st.integers(1, 16), st.booleans()),
        min_size=1, max_size=24))
    return (n, [(perm[i], perm[j]) for i, j in edges],
            [(i, base + lo, base + lo + sz, w) for i, lo, sz, w in accesses])


class TestKernelParity:
    @given(graph_strategy())
    @settings(max_examples=120, deadline=None)
    def test_numpy_equals_python_on_random_graphs(self, spec):
        n, edges, accesses = spec
        g1 = make_graph(n, edges, accesses)
        g2 = make_graph(n, edges, accesses)
        assert keys(find_races_naive(g1)) == keys(find_races(g2).candidates)

    def test_supervised_numpy_equals_python(self):
        accesses = [(i, (i * 7) % 40, (i * 7) % 40 + 12, i % 2 == 0)
                    for i in range(12)]
        g1 = make_graph(12, [(0, 1), (2, 3)], accesses)
        g2 = make_graph(12, [(0, 1), (2, 3)], accesses)
        b = find_races(g2)
        assert keys(find_races_naive(g1)) == keys(b.candidates)


class TestHbTierObservability:
    """The batched HB check books no fallback counter."""

    def _delta(self, build):
        from repro.obs.metrics import get_registry
        reg = get_registry()
        mark = reg.mark()
        ctx = build()
        return ctx, reg.delta_since(mark)["counters"]

    def _ctx(self, g):
        segs = [s for s in g.segments if s.has_accesses]
        ctx = KernelContext(g, segs)
        ctx.prepare_hb()
        return ctx

    def test_reach_tier_past_4096_segments(self):
        """A graph with more than 4,096 accessing segments, whose edges
        often run from higher to lower ids, takes the packed-row check,
        books no fallback counter, and answers every candidate pair like
        ``graph.ordered``."""
        n = 4200
        rng = random.Random(5)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[k], perm[min(n - 1, k + rng.randint(1, 40))])
                 for k in range(n - 1)]
        accesses = [(k, 8 * k, 8 * k + 16, k % 3 == 0) for k in range(n)]
        accesses += [(k, 1 << 20, (1 << 20) + 8, True)
                     for k in range(0, n, 60)]
        g = make_graph(n, edges, accesses)
        ctx, counters = self._delta(lambda: self._ctx(g))
        assert len(ctx.segs) > 4096
        assert any(a > b for a, b in edges)
        assert not any(k.startswith("analysis.hb.") for k in counters)
        ii, jj = ctx.candidate_pairs()
        got = ctx.ordered_mask(ii, jj)
        want = [g.ordered(ctx.segs[i], ctx.segs[j])
                for i, j in zip(ii.tolist(), jj.tolist())]
        assert got.tolist() == want
        assert any(want) and not all(want)

    def test_fib_answers_every_query_from_one_dp(self):
        """fib(17) on 4 threads: every candidate pair would be one DP
        query, but its segments share bytes only in frames they pushed
        themselves, so no pair reaches the check and the reachability DP
        is never built; the unfiltered pass checks many, and Section IV-D
        suppresses every one."""
        from repro.bench.programs import BenchProgram
        from repro.bench.runner import run_benchmark
        from repro.core.suppress import SuppressionEngine
        from repro.workloads.synthetic import omp_fib
        program = BenchProgram(name="fib", racy=False,
                               entry=lambda env: omp_fib(env, 17),
                               description="fib(17)", source_file="fib.c",
                               features=frozenset({"task"}))
        result = run_benchmark(program, "taskgrind", nthreads=4, seed=7,
                               keep_machine=True)
        counters = result.stats["registry"]["counters"]
        assert not any(k.startswith("analysis.hb.") for k in counters)
        graph = result.stats["graph"]
        assert graph["dp_rebuilds"] == 0
        assert graph["queries"]["label"] == 0
        # a counter never incremented is absent
        assert graph["queries"]["dp"] == \
            counters.get("analysis.candidate_pairs", 0) == 0
        assert result.stats["analysis"]["stack_local_intervals"] > 0
        unfiltered = find_races(result.tool_obj.builder.graph).table
        assert unfiltered.pair_count() > 0
        engine = SuppressionEngine(result.machine.space)
        assert engine.filter_all(unfiltered) == []
        assert engine.stats.fully_suppressed_pairs == \
            unfiltered.pair_count()

    def test_lulesh_pairs_build_the_dp_once(self):
        """Table II racy LULESH on 1 thread: 776 candidate pairs reach the
        check, and all of them are answered from one DP build."""
        from repro.bench.programs import BenchProgram
        from repro.bench.runner import run_benchmark
        from repro.workloads.lulesh import LuleshConfig, run_lulesh
        cfg = LuleshConfig(s=16, tel=4, tnl=4, iterations=4, progress=True,
                           racy=True)
        program = BenchProgram(name="lulesh", racy=True,
                               entry=lambda env: run_lulesh(env, cfg),
                               description="lulesh", source_file="lulesh.cc",
                               features=frozenset({"task"}))
        result = run_benchmark(program, "taskgrind", nthreads=1, seed=7)
        counters = result.stats["registry"]["counters"]
        graph = result.stats["graph"]
        assert counters["analysis.candidate_pairs"] == 776
        assert graph["dp_rebuilds"] == 1
        assert graph["queries"]["dp"] == 776

    def test_zero_pair_graph_builds_the_dp_on_first_query(self):
        """With no candidate pair, ``find_races`` leaves the DP unbuilt;
        ``ordered`` then builds it once and agrees with a breadth-first
        search on every pair."""
        edges = [(0, 1), (1, 3), (0, 2), (2, 3), (4, 5)]
        # reads everywhere, and the one write shares no byte with them
        accesses = [(k, 0, 64, False) for k in range(6)]
        accesses.append((5, 128, 136, True))
        g = make_graph(6, edges, accesses)
        table = find_races(g).table
        assert table.pair_count() == 0
        assert g.dp_rebuilds == 0 and g.q_dp == 0
        desc = descendants(g)
        for a in g.segments:
            for b in g.segments:
                if a is not b:
                    assert g.ordered(a, b) == \
                        (b.id in desc[a.id] or a.id in desc[b.id])
        assert g.dp_rebuilds == 1
