"""The vectorized candidate sweep against the pure-Python oracle.

:meth:`KernelContext.candidate_pairs` must return exactly
``sorted(candidate_pairs(segs))`` of :mod:`tests.core.analysis_oracle` —
the segment index pairs sharing a byte with at least one write — on
recorded runs, offline-loaded traces, random interval sets and hand-built
edge cases, whatever the sweep's block size, and with temporaries bounded
by the block rather than by the number of overlapping intervals.
"""

import glob
import os
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings, strategies as st

from repro.bench import drb, tmb
from repro.bench.programs import BenchProgram
from repro.bench.runner import run_benchmark
from repro.core import npkernel
from repro.core.npkernel import KernelContext
from repro.core.segments import SegmentGraph
from repro.core.trace import load_trace, save_trace
from repro.errors import GuestCrash, OutOfMemory, SimDeadlock
from repro.fuzz.executors import _exec_openmp, _exec_qthreads, fuzz_options
from repro.fuzz.shrink import load_reproducer
from repro.workloads.lulesh import LuleshConfig, run_lulesh
from repro.workloads.synthetic import omp_fib
from tests.core.analysis_oracle import candidate_pairs

CORPUS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "fuzz", "corpus", "*.json")))


def sweep(graph, segs=None):
    """The vectorized sweep's pairs as a list of ``(i, j)`` tuples."""
    if segs is None:
        segs = [s for s in graph.segments if s.has_accesses]
    ii, jj = KernelContext(graph, segs).candidate_pairs()
    assert ii.dtype == jj.dtype == np.int64
    return list(zip(ii.tolist(), jj.tolist()))


def assert_matches_oracle(graph):
    segs = [s for s in graph.segments if s.has_accesses]
    want = sorted(candidate_pairs(segs))
    assert sweep(graph, segs) == want
    return want


def make_graph(specs):
    """One segment per spec ``(writes, reads)``, each a list of
    ``(lo, hi)``; no happens-before edges."""
    g = SegmentGraph()
    for writes, reads in specs:
        seg = g.new_segment(thread_id=0, task=None, kind="task")
        for lo, hi in writes:
            seg.record(lo, hi - lo, True, None)
        for lo, hi in reads:
            seg.record(lo, hi - lo, False, None)
    return g


def _program(name, entry):
    return BenchProgram(name=name, racy=True, entry=entry,
                        description="candidate sweep " + name,
                        source_file=name + ".c",
                        features=frozenset({"task"}))


def _graph_of(program, nthreads, seed=2):
    result = run_benchmark(program, "taskgrind", nthreads=nthreads,
                           seed=seed, keep_machine=True)
    return result.tool_obj, result.machine


# ---------------------------------------------------------------------------
# recorded runs and loaded traces
# ---------------------------------------------------------------------------

TABLE1 = ([(p, 4) for p in drb.all_programs()]
          + [(p, 4) for p in tmb.all_programs()])


@pytest.mark.parametrize("program,nthreads", TABLE1,
                         ids=[f"{p.name}-{n}t" for p, n in TABLE1])
def test_table1_programs(program, nthreads):
    tool, _machine = _graph_of(program, nthreads)
    assert_matches_oracle(tool.builder.graph)


@pytest.mark.parametrize("path", CORPUS,
                         ids=[os.path.basename(p) for p in CORPUS])
def test_fuzz_corpus(path):
    program, _expect, options, _note = load_reproducer(path)
    run = _exec_qthreads if program.family == "feb" else _exec_openmp
    for seed in (0, 1):
        machine, tool, _addr_map, entry = run(program, seed,
                                              fuzz_options(**options))
        try:
            machine.run(entry)
        except (SimDeadlock, GuestCrash, OutOfMemory):
            pass                    # the recorded prefix is still evidence
        assert_matches_oracle(tool.builder.graph)


def test_fib():
    tool, _machine = _graph_of(_program("fib", lambda env: omp_fib(env, 14)),
                               4)
    assert len(assert_matches_oracle(tool.builder.graph)) > 1000


def _lulesh(s, tel, tnl, iterations):
    cfg = LuleshConfig(s=s, tel=tel, tnl=tnl, iterations=iterations,
                       progress=True, racy=True)
    return _graph_of(_program("lulesh", lambda env: run_lulesh(env, cfg)), 1)


def test_lulesh_s16():
    tool, _machine = _lulesh(16, 4, 4, 4)
    assert len(assert_matches_oracle(tool.builder.graph)) > 1000


def test_offline_loaded_trace(tmp_path):
    tool, machine = _lulesh(8, 2, 2, 2)
    path = str(tmp_path / "lulesh.trace")
    save_trace(tool, machine, path)
    graph, _view, _supp = load_trace(path)
    assert assert_matches_oracle(graph) == sweep(tool.builder.graph)


# ---------------------------------------------------------------------------
# random interval sets
# ---------------------------------------------------------------------------

intervals = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 24)).map(
        lambda t: (t[0], t[0] + t[1])),
    max_size=6)


@given(st.lists(st.tuples(intervals, intervals), max_size=10),
       st.sampled_from([1, 2, 3, 1 << 16]))
@settings(max_examples=200, deadline=None)
def test_random_interval_sets(specs, block):
    old = npkernel._SWEEP_BLOCK
    npkernel._SWEEP_BLOCK = block
    try:
        assert_matches_oracle(make_graph(specs))
    finally:
        npkernel._SWEEP_BLOCK = old


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

def test_touching_intervals_share_no_byte():
    g = make_graph([([(0, 8)], []), ([(8, 16)], []), ([], [(16, 24)])])
    assert sweep(g) == []


def test_equal_lo_ties():
    g = make_graph([([(0, 8)], []), ([(0, 4)], []), ([], [(0, 16)]),
                    ([], [(0, 2)])])
    assert assert_matches_oracle(g) == [(0, 1), (0, 2), (0, 3), (1, 2),
                                        (1, 3)]


def test_overlapping_reads_only():
    g = make_graph([([], [(0, 8)]), ([], [(4, 12)]), ([], [(0, 16)])])
    assert sweep(g) == []


def test_own_read_write_overlap_is_no_pair():
    g = make_graph([([(4, 12)], [(0, 8)]), ([], [(100, 108)])])
    assert sweep(g) == []


def test_long_interval_spanning_many_short(monkeypatch):
    specs = [([(0, 4096)], [])] + [([], [(k * 16, k * 16 + 8)])
                                   for k in range(200)]
    want = [(0, k) for k in range(1, 201)]
    assert assert_matches_oracle(make_graph(specs)) == want
    # the long interval's 200 partners split across many tiny blocks
    monkeypatch.setattr(npkernel, "_SWEEP_BLOCK", 7)
    assert sweep(make_graph(specs)) == want


def test_zero_and_one_segment():
    assert sweep(SegmentGraph(), []) == []
    g = make_graph([([(0, 8)], [(0, 16)])])
    assert sweep(g) == []


@pytest.mark.parametrize("block", [1, 2, 5, 64])
def test_tiny_blocks(monkeypatch, block):
    tool, _machine = _lulesh(8, 2, 2, 2)
    graph = tool.builder.graph
    want = sweep(graph)
    monkeypatch.setattr(npkernel, "_SWEEP_BLOCK", block)
    assert sweep(graph) == want


def test_peak_memory_bounded_by_output():
    """2,000 segments writing the same 8 bytes: ~2M pairs.  The sweep's
    peak stays near the size of its own output: the expanded interval
    pairs are never materialized all at once."""
    n = 2000
    g = make_graph([([(0, 8)], [])] * n)
    segs = list(g.segments)
    ctx = KernelContext(g, segs)
    tracemalloc.start()
    try:
        ii, jj = ctx.candidate_pairs()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = n * (n - 1) // 2
    assert ii.shape[0] == pairs
    out_bytes = ii.nbytes + jj.nbytes
    # one block's temporaries plus one copy of the codes; expanding all
    # ~2M interval pairs at once would take over 3x the output
    assert peak < 1.5 * out_bytes + (4 << 20), (peak, out_bytes)
    want_i, want_j = np.triu_indices(n, 1)
    assert np.array_equal(ii, want_i) and np.array_equal(jj, want_j)
