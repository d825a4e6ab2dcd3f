"""Tests for report formatting (Listings 5/6) and TaskgrindTool plumbing."""

from repro.core.reports import dedupe_reports, format_report
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.errors import SimDeadlock
from tests.core.analysis_oracle import find_races_naive


def listing4(env, annotate=False):
    ctx = env.ctx
    x = ctx.malloc(2 * 4, line=3, name="x")

    def single_body():
        ctx.line(8)
        env.task(lambda tv: x.write(0, 42, line=9), name="t8",
                 annotate_deferrable=annotate)
        ctx.line(11)
        env.task(lambda tv: x.write(0, 43, line=12), name="t11",
                 annotate_deferrable=annotate)

    ctx.line(4)
    env.parallel_single(single_body)
    return x


class TestReportContent:
    def test_report_carries_alloc_site(self, run_taskgrind):
        tool, machine = run_taskgrind(lambda env: listing4(env))
        assert len(tool.reports) == 1
        rep = tool.reports[0]
        assert rep.block_size == 8                 # 2 * sizeof(int)
        assert rep.alloc_site is not None and rep.alloc_site.line == 3
        assert rep.alloc_stack and rep.alloc_stack[-1].function == "main"

    def test_report_segment_labels_are_pragma_lines(self, run_taskgrind):
        tool, _ = run_taskgrind(lambda env: listing4(env))
        labels = sorted(tool.reports[0].key())
        assert labels[0].endswith(":11") and labels[1].endswith(":8")

    def test_taskgrind_format(self, run_taskgrind):
        tool, _ = run_taskgrind(lambda env: listing4(env))
        text = format_report(tool.reports[0])
        assert "were declared" in text
        assert "independent while accessing the same memory address" in text
        assert "of size 8" in text
        assert "main.c:3" in text

    def test_romp_format_has_no_debug_info(self, run_taskgrind):
        tool, _ = run_taskgrind(lambda env: listing4(env))
        text = format_report(tool.reports[0], style="romp")
        assert "data race found" in text
        assert "no source information" in text
        assert "main.c" not in text

    def test_conflicting_access_lines(self, run_taskgrind):
        tool, _ = run_taskgrind(lambda env: listing4(env))
        text = format_report(tool.reports[0])
        assert "main.c:9" in text and "main.c:12" in text

    def test_dedupe_collapses_loop_reports(self, run_taskgrind):
        def body(env):
            ctx = env.ctx
            x = ctx.malloc(4, line=3)

            def make():
                for _ in range(3):
                    ctx.line(8)
                    env.task(lambda tv: x.write(0, line=9), name="w")
            env.parallel_single(make)

        tool, _ = run_taskgrind(body)
        assert len(tool.reports) >= 2
        assert len(dedupe_reports(tool.reports)) == 1

    def test_dedupe_is_order_independent(self, run_taskgrind):
        # parallel analysis permutes report order; dedupe must pick the same
        # representatives in the same output order regardless
        import random

        def body(env):
            ctx = env.ctx
            x = ctx.malloc(4, line=3)
            y = ctx.malloc(4, line=4)

            def make():
                for _ in range(2):
                    ctx.line(8)
                    env.task(lambda tv: x.write(0, line=9), name="wx")
                    ctx.line(11)
                    env.task(lambda tv: y.write(0, line=12), name="wy")
            env.parallel_single(make)

        tool, _ = run_taskgrind(body)
        assert len(tool.reports) >= 2
        baseline = dedupe_reports(tool.reports)
        rng = random.Random(0)
        for _ in range(5):
            shuffled = list(tool.reports)
            rng.shuffle(shuffled)
            again = dedupe_reports(shuffled)
            assert [r.key() for r in again] == [r.key() for r in baseline]
            assert [r.sort_key() for r in again] == \
                [r.sort_key() for r in baseline]


class TestToolPlumbing:
    def test_client_requests_flow_through_router(self, run_taskgrind):
        tool, machine = run_taskgrind(lambda env: listing4(env))
        assert machine.client_requests.request_count > 10

    def test_ignore_list_filters_runtime_accesses(self, run_taskgrind):
        tool, _ = run_taskgrind(lambda env: listing4(env))
        # __kmpc_omp_task_alloc / __kmp_fast_free traffic was dropped
        assert tool.recorded_accesses > 0

    def test_memory_accounting_positive(self, run_taskgrind):
        tool, machine = run_taskgrind(lambda env: listing4(env))
        assert tool.memory_bytes(0) > tool.VALGRIND_CORE_BYTES

    def test_analysis_modes_agree(self, run_taskgrind):
        """One analysis worker and several find what the oracle finds."""
        for workers in (1, 2, 4):
            opts = TaskgrindOptions(analysis_workers=workers)
            tool, _ = run_taskgrind(lambda env: listing4(env), options=opts)
            assert len(tool.reports) == 1, workers
            assert tool.raw_candidates == \
                len(find_races_naive(tool.builder.graph)), workers

    def test_serialized_clock(self, run_taskgrind):
        tool, machine = run_taskgrind(lambda env: listing4(env))
        assert machine.cost.clock.serialize


class TestModeledLockup:
    def _dep_chain_body(self, env):
        """Annotated tasks with dependences, executed across threads."""
        ctx = env.ctx
        toks = [ctx.malloc(8) for _ in range(4)]

        def region(_tid):
            def single_body():
                for rep in range(6):
                    for c in range(4):
                        env.task(lambda tv: ctx.compute(500),
                                 depend={"inout": [toks[c]]},
                                 annotate_deferrable=True, name=f"chain{c}")
                env.taskwait()
            env.single(single_body)
        env.parallel(region)          # team size = the run's nthreads

    def test_lockup_can_fire_multithreaded(self):
        """The Table II mechanism: somewhere across seeds the cross-thread
        confirmation wait deadlocks a 4-thread annotated+dependent run."""
        from repro.machine.machine import Machine
        from repro.openmp.api import make_env

        hit = 0
        for seed in range(8):
            machine = Machine(seed=seed)
            tool = TaskgrindTool()
            machine.add_tool(tool)
            env = make_env(machine, nthreads=4)
            env.rt.ompt.register(tool.make_ompt_shim())
            try:
                machine.run(lambda: self._dep_chain_body(env))
            except SimDeadlock:
                hit += 1
        assert hit >= 1

    def test_no_lockup_single_thread(self, run_taskgrind):
        tool, _ = run_taskgrind(self._dep_chain_body, nthreads=1)

    def test_no_lockup_without_annotation(self):
        from repro.machine.machine import Machine
        from repro.openmp.api import make_env

        def body(env):
            ctx = env.ctx
            tok = ctx.malloc(8)

            def make():
                for _ in range(8):
                    env.task(lambda tv: ctx.compute(100),
                             depend={"inout": [tok]})
                env.taskwait()
            env.parallel_single(make, num_threads=4)

        for seed in range(4):
            machine = Machine(seed=seed)
            tool = TaskgrindTool()
            machine.add_tool(tool)
            env = make_env(machine, nthreads=4)
            env.rt.ompt.register(tool.make_ompt_shim())
            machine.run(lambda: body(env))      # must not deadlock

    def test_lockup_model_can_be_disabled(self):
        from repro.machine.machine import Machine
        from repro.openmp.api import make_env
        from repro.workloads.lulesh import LuleshConfig, run_lulesh

        opts = TaskgrindOptions(model_multithread_lockup=False)
        machine = Machine(seed=0)
        tool = TaskgrindTool(opts)
        machine.add_tool(tool)
        env = make_env(machine, nthreads=4, source_file="lulesh.cc")
        env.rt.ompt.register(tool.make_ompt_shim())
        machine.run(lambda: run_lulesh(env, LuleshConfig(s=4, iterations=2)))
        tool.finalize()                          # completes, no deadlock
