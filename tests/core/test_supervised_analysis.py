"""Supervised analysis + the memory-budget degradation path."""

import time

import pytest

import repro.core.npkernel as npkernel_mod
from repro.core.analysis import analyze_and_suppress, find_races
from repro.core.reports import format_report
from repro.core.segments import SegmentBuilder
from repro.core.suppress import SuppressionEngine
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.faults.inject import inject_plan
from repro.faults.plan import FaultPlan
from repro.machine.machine import Machine
from repro.openmp.api import make_env
from tests.core.analysis_oracle import find_races_naive


def racy_listing(env):
    ctx = env.ctx
    x = ctx.malloc(8, line=3, name="x")
    y = ctx.malloc(8, line=4, name="y")

    def single_body():
        ctx.line(8)
        env.task(lambda tv: x.write(0, line=9), name="t8")
        ctx.line(11)
        env.task(lambda tv: x.write(0, line=12), name="t11")
        ctx.line(14)
        env.task(lambda tv: y.write(0, line=15), name="t14")
        ctx.line(17)
        env.task(lambda tv: y.write(0, line=18), name="t17")

    env.parallel_single(single_body)


def _cand_keys(candidates):
    return {(c.s1.id, c.s2.id) for c in candidates}


@pytest.fixture
def ran(run_taskgrind):
    return run_taskgrind(racy_listing)


@pytest.fixture
def graph(ran):
    return ran[0].builder.graph


@pytest.fixture
def tiny_chunks(monkeypatch):
    """One candidate pair per chunk, so a single poisoned chunk cannot
    shadow the whole pair space."""
    monkeypatch.setattr(npkernel_mod, "_PAIR_BATCH", 1)


class TestSupervisor:
    def test_fault_free_run_is_complete(self, graph):
        partial = find_races(graph, workers=2)
        assert partial.complete
        assert partial.unchecked_pairs == 0
        assert partial.quarantined == []
        assert _cand_keys(partial.candidates) \
            == _cand_keys(find_races_naive(graph))

    def test_worker_exception_keeps_completed_chunks(self, graph,
                                                     tiny_chunks):
        """The satellite regression: one poisoned chunk must cost exactly
        that chunk, not the whole analysis."""
        full = _cand_keys(find_races_naive(graph))
        with inject_plan(FaultPlan.single("worker-exc", 0)):
            partial = find_races(graph, workers=2, max_retries=1)
        assert not partial.complete
        assert [q.index for q in partial.quarantined] == [0]
        assert partial.unchecked_pairs == 1
        assert partial.chunks_ok == partial.chunks_total - 1
        kept = _cand_keys(partial.candidates)
        assert kept <= full
        assert len(kept) >= len(full) - 1    # at most the poisoned pair lost

    def test_retry_recovers_a_transient_fault(self, graph, tiny_chunks):
        full = _cand_keys(find_races_naive(graph))
        with inject_plan(FaultPlan.single("worker-exc", 0, times=1)):
            partial = find_races(graph, workers=2, max_retries=2)
        assert partial.complete
        assert partial.retries >= 1
        assert _cand_keys(partial.candidates) == full

    def test_hang_hits_deadline_and_quarantines(self, graph, tiny_chunks):
        with inject_plan(FaultPlan.single("worker-hang", 0, seconds=0.5)):
            partial = find_races(graph, workers=2, deadline_s=0.05,
                                 max_retries=0)
        assert partial.deadline_hits >= 1
        assert not partial.complete
        assert any("deadline" in q.error for q in partial.quarantined)

    def test_queued_chunk_is_not_charged_a_deadline(self, graph,
                                                    tiny_chunks):
        """A chunk waiting behind a hung one never started: its deadline
        has not begun, so only the hung chunk is quarantined, and the hung
        worker cannot hold the rest back until its hang ends."""
        later = set(sorted(_cand_keys(find_races_naive(graph)))[1:])
        for workers, hang in ((1, 0.3), (2, 0.3), (1, 1.0)):
            t0 = time.monotonic()
            with inject_plan(FaultPlan.single("worker-hang", 0,
                                              seconds=hang)):
                partial = find_races(graph, workers=workers,
                                     deadline_s=0.1, max_retries=0)
            elapsed = time.monotonic() - t0
            assert [q.index for q in partial.quarantined] == [0], workers
            assert partial.deadline_hits == 1, workers
            assert partial.pairs_checked == partial.pairs_total - 1
            assert _cand_keys(partial.candidates) == later, workers
        assert elapsed < hang          # a hang ten times the deadline

    def test_parallel_entry_point_delegates(self, ran, tiny_chunks):
        """The pipeline entry point rides the supervisor: a transient
        worker death no longer discards every completed chunk."""
        tool, machine = ran
        graph = tool.builder.graph
        full = _cand_keys(find_races_naive(graph))
        with inject_plan(FaultPlan.single("worker-exc", 0, times=1)):
            found = analyze_and_suppress(graph,
                                         SuppressionEngine(machine.space),
                                         machine.allocator, workers=2)
        assert found.partial.complete and found.partial.retries == 1
        assert found.raw_candidates == len(full)

    def test_partial_analysis_document(self, graph, tiny_chunks):
        with inject_plan(FaultPlan.single("worker-exc", 0)):
            partial = find_races(graph, workers=2, max_retries=0)
        doc = partial.to_dict()
        assert doc["schema"] == "taskgrind-partial-analysis/1"
        assert doc["complete"] is False
        assert doc["pairs"]["unchecked"] == 1
        assert doc["chunks"]["quarantined"] == 1
        assert "quarantined" in partial.summary()


class TestToolIntegration:
    def _run(self, options, prime=None):
        machine = Machine(seed=0)
        tool = TaskgrindTool(options)
        if prime is not None:
            prime(tool)
        machine.add_tool(tool)
        env = make_env(machine, nthreads=4)
        env.rt.ompt.register(tool.make_ompt_shim())

        def main():
            with env.ctx.function("main", line=1):
                racy_listing(env)
        machine.run(main)
        return tool, tool.finalize()

    def test_incomplete_analysis_stamps_reports(self, tiny_chunks):
        opts = TaskgrindOptions(analysis_workers=2, analysis_max_retries=0)
        with inject_plan(FaultPlan.single("worker-exc", 0)):
            tool, reports = self._run(opts)
        assert tool.partial_analysis is not None
        assert not tool.partial_analysis.complete
        assert reports                       # completed chunks still report
        assert all(any("incomplete analysis" in n for n in r.notes)
                   for r in reports)
        assert "WARNING: incomplete analysis" in format_report(reports[0])
        resilience = tool.stats()["resilience"]
        assert resilience["analysis"]["complete"] is False

    def test_memory_budget_trips_to_coarse(self):
        def prime(tool):
            tool._budget_check_every = 1     # deterministic on a tiny run
        opts = TaskgrindOptions(memory_budget=1)
        tool, reports = self._run(opts, prime=prime)
        assert tool.budget_tripped_at is not None
        assert tool.builder.coarse_granule == 64
        assert reports                       # over-approximation keeps races
        assert all(any("memory budget" in n for n in r.notes)
                   for r in reports)
        resilience = tool.stats()["resilience"]
        assert resilience["budget_tripped_at"] == tool.budget_tripped_at
        assert resilience["coarse_granule"] == 64

    def test_no_budget_means_no_notes(self):
        tool, reports = self._run(TaskgrindOptions())
        assert tool.budget_tripped_at is None
        assert all(r.notes == () for r in reports)


class TestCoarseRecording:
    def test_coarse_mode_widens_and_is_one_way(self):
        machine = Machine(seed=0)
        builder = SegmentBuilder(machine)
        assert builder.coarse_granule == 0
        builder.enter_coarse_mode(64)
        assert builder.coarse_granule == 64
        builder.enter_coarse_mode(16)        # narrowing is ignored
        assert builder.coarse_granule == 64

    def test_granule_must_be_power_of_two(self):
        machine = Machine(seed=0)
        builder = SegmentBuilder(machine)
        with pytest.raises(AssertionError):
            builder.enter_coarse_mode(48)
