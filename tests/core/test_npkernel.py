"""Tests for the vectorized conflict kernel (``analysis_kernel=numpy``).

Property tests pin every numpy primitive to the IntervalSet oracle, and the
end-to-end kernel to the pure-Python analysis pass on random graphs — the
soundness contract of ``analysis_kernel=auto`` picking either freely.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.core import npkernel
from repro.core.analysis import find_races_indexed, find_races_supervised
from repro.core.npkernel import (KernelContext, coalesce_arrays,
                                 intersect_arrays, resolve_kernel)
from repro.core.segments import SegmentGraph
from repro.util.intervals import IntervalSet

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
        from repro.core.analysis import _conflict_ranges
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
        oracle = _conflict_ranges(s1, s2)
        ctx = KernelContext(g, [s1, s2])
        ctx.prepare_hb()
        (ci, cj, lo, hi), ordered = ctx.check_pairs(
            np.asarray([0], dtype=np.int64), np.asarray([1], dtype=np.int64))
        assert ordered == 0
        assert list(zip(lo.tolist(), hi.tolist())) == oracle.pairs()
        assert set(ci.tolist()) <= {0} and set(cj.tolist()) <= {1}


@st.composite
def graph_strategy(draw):
    n = draw(st.integers(2, 8))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda t: t[0] < t[1]), max_size=8))
    accesses = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 60),
                  st.integers(1, 16), st.booleans()),
        min_size=1, max_size=24))
    return n, edges, [(i, lo, lo + sz, w) for i, lo, sz, w in accesses]


class TestKernelParity:
    @given(graph_strategy())
    @settings(max_examples=120, deadline=None)
    def test_numpy_equals_python_on_random_graphs(self, spec):
        n, edges, accesses = spec
        g1 = make_graph(n, edges, accesses)
        g2 = make_graph(n, edges, accesses)
        assert keys(find_races_indexed(g1, kernel="python")) == \
            keys(find_races_indexed(g2, kernel="numpy"))

    def test_supervised_numpy_equals_python(self):
        accesses = [(i, (i * 7) % 40, (i * 7) % 40 + 12, i % 2 == 0)
                    for i in range(12)]
        g1 = make_graph(12, [(0, 1), (2, 3)], accesses)
        g2 = make_graph(12, [(0, 1), (2, 3)], accesses)
        a = find_races_supervised(g1, workers=2, kernel="python")
        b = find_races_supervised(g2, workers=2, kernel="numpy")
        assert keys(a.candidates) == keys(b.candidates)

    def test_unbatched_fallback_matches(self, monkeypatch):
        # huge addresses overflow the per-pair window: the context must fall
        # back to the per-pair loop and still agree with the oracle
        big = 1 << 50
        accesses = [(0, big, big + 8, True), (1, big + 4, big + 12, True)]
        g1 = make_graph(2, [], accesses)
        g2 = make_graph(2, [], accesses)
        segs = [s for s in g2.segments if s.has_accesses]
        ctx = KernelContext(g2, segs)
        assert not ctx._batched
        assert keys(find_races_indexed(g1, kernel="python")) == \
            keys(find_races_indexed(g2, kernel="numpy"))

    def test_label_overflow_falls_back(self):
        """Labels wider than int64 no longer fall back: their dense ranks
        take the ``label`` tier and answer like the raw labels."""
        g = make_graph(4, [], [(k, 0, 8, True) for k in range(4)])
        _wide_labels(g)
        segs = [s for s in g.segments if s.has_accesses]
        ctx = KernelContext(g, segs)
        assert ctx.prepare_hb() == "label"
        assert ctx._e.dtype == np.int64
        _assert_mask_matches_labels(g, ctx)


def _wide_labels(g):
    """80-bit (E, H) labels: segments 0 < 1 in both orders (ordered), 2
    and 3 reversed in H (unordered with each other and with 0 and 1)."""
    g._hb_labels = ({0: (1 << 80) + 1, 1: (1 << 80) + 2, 2: (1 << 80) + 3,
                     3: (1 << 80) + 4},
                    {0: (1 << 81) + 3, 1: (1 << 81) + 4, 2: (1 << 81) + 2,
                     3: (1 << 81) + 1})


def _assert_mask_matches_labels(g, ctx):
    """The batched rank compare agrees with ``graph.ordered`` on the raw
    labels for every pair."""
    n = len(ctx.segs)
    ii, jj = np.triu_indices(n, 1)
    got = ctx.ordered_mask(ii.astype(np.int64), jj.astype(np.int64))
    want = [g.ordered(ctx.segs[i], ctx.segs[j]) for i, j in zip(ii, jj)]
    assert got.tolist() == want
    assert any(want) and not all(want)


class TestResolveKernel:
    def _graph(self):
        return make_graph(2, [], [(0, 0, 8, True), (1, 0, 8, True)])

    def test_explicit_python(self):
        assert resolve_kernel("python", self._graph(), 10_000) == "python"

    def test_auto_small_pair_count_stays_python(self):
        assert resolve_kernel("auto", self._graph(),
                              npkernel.AUTO_MIN_PAIRS - 1) == "python"

    def test_auto_large_pair_count_picks_numpy(self):
        assert resolve_kernel("auto", self._graph(),
                              npkernel.AUTO_MIN_PAIRS) == "numpy"

    def test_explicit_numpy_ignores_pair_count(self):
        assert resolve_kernel("numpy", self._graph(), 1) == "numpy"

    def test_checked_hb_mode_forces_python(self):
        g = self._graph()
        g.hb_mode = "checked"
        assert resolve_kernel("numpy", g, 10_000) == "python"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            resolve_kernel("cuda", self._graph(), 10)

    def test_numpy_absent_degrades(self, monkeypatch):
        monkeypatch.setattr(npkernel, "HAVE_NUMPY", False)
        assert resolve_kernel("numpy", self._graph(), 10_000) == "python"
        assert resolve_kernel("auto", self._graph(), 10_000) == "python"


class TestHbTierObservability:
    """Every batched-HB fallback is a counter, and the tier is a gauge."""

    def _delta(self, build):
        from repro.obs.metrics import get_registry
        reg = get_registry()
        mark = reg.mark()
        ctx = build()
        return ctx, reg.delta_since(mark)["counters"], \
            reg.gauge("analysis.hb_tier").value

    def _ctx(self, g):
        segs = [s for s in g.segments if s.has_accesses]
        ctx = KernelContext(g, segs)
        ctx.prepare_hb()
        return ctx

    def test_label_tier(self):
        g = make_graph(2, [], [(0, 0, 8, True), (1, 0, 8, True)])
        g._hb_labels = ({s.id: s.id for s in g.segments},
                        {s.id: -s.id for s in g.segments})
        ctx, counters, tier = self._delta(lambda: self._ctx(g))
        assert tier == ctx.hb_tier == "label"
        assert not any(k.startswith("analysis.hb.") for k in counters)

    def test_overflow_books_counter_then_matrix(self):
        """80-bit labels book no fallback counter and stay on the label
        tier, with the same answers as the raw labels."""
        g = make_graph(4, [], [(k, 0, 8, True) for k in range(4)])
        _wide_labels(g)
        ctx, counters, tier = self._delta(lambda: self._ctx(g))
        assert not any(k.startswith("analysis.hb.") for k in counters)
        assert tier == ctx.hb_tier == "label"
        assert g.dp_rebuilds == 0
        _assert_mask_matches_labels(g, ctx)

    def test_matrix_skip_books_counter_then_per_pair(self, monkeypatch):
        monkeypatch.setattr(npkernel, "MATRIX_MAX_SEGS", 1)
        g = make_graph(2, [], [(0, 0, 8, True), (1, 0, 8, True)])
        ctx, counters, tier = self._delta(lambda: self._ctx(g))
        assert counters["analysis.hb.matrix_skipped"] == 1
        assert tier == ctx.hb_tier == "per_pair"

    def test_python_kernel_reports_per_pair(self):
        from repro.obs.metrics import get_registry
        g = make_graph(2, [], [(0, 0, 8, True), (1, 0, 8, True)])
        find_races_indexed(g, kernel="python")
        assert get_registry().gauge("analysis.hb_tier").value == "per_pair"

    def test_fib_overflows_labels_and_uses_matrix(self):
        """fib(17) on 4 threads: its order-maintenance labels are 72 bits
        wide, yet the exact series-parallel graph answers every HB query
        from label ranks — no DP rebuild, no DP query."""
        from repro.bench.programs import BenchProgram
        from repro.bench.runner import run_benchmark
        from repro.obs.metrics import get_registry
        from repro.workloads.synthetic import omp_fib
        program = BenchProgram(name="fib", racy=False,
                               entry=lambda env: omp_fib(env, 17),
                               description="fib(17)", source_file="fib.c",
                               features=frozenset({"task"}))
        result = run_benchmark(program, "taskgrind", nthreads=4, seed=7)
        counters = result.stats["registry"]["counters"]
        assert not any(k.startswith("analysis.hb.") for k in counters)
        assert get_registry().gauge("analysis.hb_tier").value == "label"
        graph = result.stats["graph"]
        assert graph["segments"] > npkernel.MATRIX_MAX_SEGS
        assert graph["hb_relabels"] > 0
        assert graph["dp_rebuilds"] == 0
        assert graph["queries"]["dp"] == 0
        assert graph["queries"]["label"] == \
            counters["analysis.candidate_pairs"] > 0
