"""A1 — ablation: sequential vs parallel determinacy-race pass.

The paper's Section VII: *"The determinacy race post-processing analysis is
an embarrassingly parallel algorithm, but it is currently run sequentially
within the Valgrind framework."*  This bench builds a large synthetic segment
graph and compares the faithful O(n^2) pass (the test oracle in
``tests/core/analysis_oracle.py``) with the address-indexed pass run
sequentially (one worker) and thread-parallel (four workers) — asserting
identical results and measuring the speedups a parallel pass would buy.
"""

import pytest

from repro.core.analysis import find_races
from repro.core.npkernel import KernelContext
from repro.core.segments import SegmentGraph
from repro.util.rng import RngHub
from tests.core.analysis_oracle import (all_pairs, candidate_pairs,
                                        find_races_naive)


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


def test_bench_sequential(benchmark, graph, expected):
    cands = benchmark(find_races, graph, workers=1).candidates
    assert sorted((c.key(), tuple(c.ranges.pairs())) for c in cands) == \
        expected


def test_bench_parallel(benchmark, graph, expected):
    cands = benchmark(find_races, graph, workers=4).candidates
    assert sorted((c.key(), tuple(c.ranges.pairs())) for c in cands) == \
        expected


class TestAblationShape:
    def test_indexed_examines_fewer_pairs(self, graph):
        """The address index prunes the O(n^2) pair space."""
        segs = [s for s in graph.segments if s.has_accesses]
        n = len(segs)
        assert len(candidate_pairs(segs)) < n * (n - 1) // 2

    def test_all_passes_agree_on_lulesh(self, monkeypatch):
        from repro.core.tool import TaskgrindOptions, TaskgrindTool
        from repro.machine.machine import Machine
        from repro.openmp.api import make_env
        from repro.workloads.lulesh import LuleshConfig, run_lulesh

        def count(workers):
            machine = Machine(seed=0)
            tool = TaskgrindTool(TaskgrindOptions(analysis_workers=workers))
            machine.add_tool(tool)
            env = make_env(machine, nthreads=1, source_file="lulesh.cc")
            env.rt.ompt.register(tool.make_ompt_shim())
            machine.run(lambda: run_lulesh(
                env, LuleshConfig(s=8, racy=True, iterations=2)))
            return len(tool.finalize())

        counts = {workers: count(workers) for workers in (1, 4)}
        monkeypatch.setattr(KernelContext, "candidate_pairs", all_pairs)
        counts["naive"] = count(1)
        assert counts["naive"] == counts[1] == counts[4]
        assert counts["naive"] > 0
