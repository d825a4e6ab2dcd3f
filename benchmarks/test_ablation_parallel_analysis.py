"""A1 — ablation: sequential vs parallel determinacy-race pass.

The paper's Section VII: *"The determinacy race post-processing analysis is
an embarrassingly parallel algorithm, but it is currently run sequentially
within the Valgrind framework."*  This bench builds a large synthetic segment
graph and compares the faithful O(n^2) pass, the address-indexed pass, and
the thread-parallel pass — asserting identical results and measuring the
speedups a parallel pass would buy.
"""

import pytest

from repro.core.analysis import (find_races_indexed, find_races_naive,
                                 find_races_parallel)
from repro.core.segments import SegmentGraph
from repro.util.rng import RngHub


def build_graph(n_segments=300, seed=7):
    """A layered DAG with clustered conflicting accesses."""
    rng = RngHub(seed)
    g = SegmentGraph()
    segs = []
    for i in range(n_segments):
        s = g.new_segment(thread_id=i % 4, task=None, kind="task")
        segs.append(s)
        if i >= 4 and rng.randint("edge", 0, 3) != 0:
            g.add_edge(segs[rng.randint("src", max(0, i - 16), i)], s)
        base = rng.randint("addr", 0, 40) * 64
        size = rng.randint("size", 8, 128)
        s.record(base, size, rng.randint("w", 0, 2) == 0, None)
        s.record(base + 4096, size, True, None)
    return g


@pytest.fixture(scope="module")
def graph():
    return build_graph()


@pytest.fixture(scope="module")
def expected(graph):
    return sorted((c.key(), tuple(c.ranges.pairs()))
                  for c in find_races_naive(graph))


def test_bench_naive(benchmark, graph, expected):
    cands = benchmark(find_races_naive, graph)
    assert sorted((c.key(), tuple(c.ranges.pairs())) for c in cands) == \
        expected


def test_bench_indexed(benchmark, graph, expected):
    cands = benchmark(find_races_indexed, graph)
    assert sorted((c.key(), tuple(c.ranges.pairs())) for c in cands) == \
        expected


def test_bench_parallel(benchmark, graph, expected):
    cands = benchmark(find_races_parallel, graph, workers=4)
    assert sorted((c.key(), tuple(c.ranges.pairs())) for c in cands) == \
        expected


class TestAblationShape:
    def test_indexed_examines_fewer_pairs(self, graph):
        """The address index prunes the O(n^2) pair space."""
        from tests.core.analysis_oracle import candidate_pairs
        segs = [s for s in graph.segments if s.has_accesses]
        n = len(segs)
        assert len(candidate_pairs(segs)) < n * (n - 1) // 2

    def test_all_passes_agree_on_lulesh(self):
        from repro.core.tool import TaskgrindOptions, TaskgrindTool
        from repro.machine.machine import Machine
        from repro.openmp.api import make_env
        from repro.workloads.lulesh import LuleshConfig, run_lulesh

        counts = {}
        for mode in ("naive", "indexed", "parallel"):
            machine = Machine(seed=0)
            tool = TaskgrindTool(TaskgrindOptions(analysis=mode))
            machine.add_tool(tool)
            env = make_env(machine, nthreads=1, source_file="lulesh.cc")
            env.rt.ompt.register(tool.make_ompt_shim())
            machine.run(lambda: run_lulesh(
                env, LuleshConfig(s=8, racy=True, iterations=2)))
            counts[mode] = len(tool.finalize())
        assert counts["naive"] == counts["indexed"] == counts["parallel"]
        assert counts["naive"] > 0
