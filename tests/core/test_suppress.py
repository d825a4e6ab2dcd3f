"""Tests for the Section IV false-positive suppressions."""


from repro.core.suppress import SuppressionConfig, SuppressionEngine
from repro.core.tool import TaskgrindOptions
from repro.machine.debuginfo import DebugInfo


class TestSymbolFilter:
    def make(self, **kw):
        return SuppressionEngine(space=None, config=SuppressionConfig(**kw))

    def test_default_ignore_list_drops_kmp(self):
        eng = self.make()
        assert eng.symbol_filtered("__kmp_fast_allocate")
        assert eng.symbol_filtered("__kmpc_omp_task_alloc")
        assert not eng.symbol_filtered("main")
        assert not eng.symbol_filtered("memcpy")   # the paper's gap!

    def test_instrument_list_whitelists(self):
        eng = self.make(instrument_list=("lulesh*",))
        assert not eng.symbol_filtered("lulesh_main")
        assert eng.symbol_filtered("main")

    def test_ignore_wins_inside_instrument_list(self):
        eng = self.make(instrument_list=("*",), ignore_list=("__kmp",))
        assert eng.symbol_filtered("__kmp_barrier")
        assert not eng.symbol_filtered("main")

    def test_prefix_semantics(self):
        assert DebugInfo.matches_any("__kmp_join_barrier", ("__kmp",))
        assert not DebugInfo.matches_any("kmp_join", ("__kmp",))
        assert DebugInfo.matches_any("foo_bar", ("f?o_*",))


class TestRecyclingSuppression:
    def test_free_replacement_installed_by_default(self, run_taskgrind):
        def body(env):
            x = env.ctx.malloc(8)
            env.ctx.free(x)
        tool, machine = run_taskgrind(body)
        assert machine.replacements.is_replaced("free")
        assert machine.allocator.retained_bytes > 0

    def test_listing1_no_false_positive(self, run_taskgrind):
        """Listing 1: two tasks malloc/write/free the same-size block."""
        def body(env):
            def task_body(tv):
                x = env.ctx.malloc(4)
                x.write(0)
                env.ctx.free(x)

            def make():
                for _ in range(2):
                    env.task(task_body, annotate_deferrable=True)
                env.taskwait()
            env.parallel_single(make, num_threads=1)

        tool, _ = run_taskgrind(body, nthreads=1)
        assert tool.reports == []

    def test_listing1_false_positive_without_suppression(self, run_taskgrind):
        """Ablation: recycling suppression off -> the paper's FP appears."""
        opts = TaskgrindOptions()
        opts.suppression.suppress_recycling = False

        def body(env):
            def task_body(tv):
                x = env.ctx.malloc(4)
                x.write(0)
                env.ctx.free(x)

            def make():
                for _ in range(2):
                    env.task(task_body, annotate_deferrable=True)
                env.taskwait()
            env.parallel_single(make, num_threads=1)

        tool, machine = run_taskgrind(body, nthreads=1, options=opts)
        assert machine.allocator.recycled_allocs >= 1
        assert len(tool.reports) >= 1

    def test_fast_arena_not_covered(self, run_taskgrind):
        """The future-work limitation: __kmp_fast_allocate still recycles."""
        def body(env):
            k = env.ctx.stack_var("k", 8, elem=8)

            def make():
                for n in range(2):
                    k.write(0, n)
                    env.task(lambda tv: tv.private_value("k"),
                             firstprivate={"k": k}, annotate_deferrable=True)
                env.taskwait()
            env.parallel_single(make, num_threads=4)

        tool, machine = run_taskgrind(body, nthreads=4)
        assert machine.fast_arena.recycled_allocs >= 1


class TestStackSuppression:
    def test_own_frame_aliasing_suppressed(self, run_taskgrind):
        """Listing 3 / TMB 1003: sequential tasks' own locals alias."""
        def body(env):
            def task_body(tv):
                z = env.ctx.stack_var("z", 8, elem=8)
                z.write(0)

            def make():
                for _ in range(2):
                    env.task(task_body, annotate_deferrable=True)
                env.taskwait()
            env.parallel_single(make, num_threads=1)

        tool, _ = run_taskgrind(body, nthreads=1)
        assert tool.reports == []
        assert tool.suppressor.stats.stack_suppressed >= 1

    def test_parent_frame_conflict_not_suppressed(self, run_taskgrind):
        """TMB 1001: a real race on the parent's stack var is kept."""
        def body(env):
            y = env.ctx.stack_var("y", 8, elem=8)

            def make():
                for _ in range(2):
                    env.task(lambda tv: y.write(0), annotate_deferrable=True)
                env.taskwait()
            env.parallel_single(make, num_threads=1)

        tool, _ = run_taskgrind(body, nthreads=1)
        assert len(tool.reports) >= 1

    def test_ablation_flag_restores_fp(self, run_taskgrind):
        opts = TaskgrindOptions()
        opts.suppression.suppress_stack = False

        def body(env):
            def task_body(tv):
                z = env.ctx.stack_var("z", 8, elem=8)
                z.write(0)

            def make():
                for _ in range(2):
                    env.task(task_body, annotate_deferrable=True)
                env.taskwait()
            env.parallel_single(make, num_threads=1)

        tool, _ = run_taskgrind(body, nthreads=1, options=opts)
        assert len(tool.reports) >= 1


class TestTlsSuppression:
    def _tls_body(self, env, n_tasks=2):
        def task_body(tv):
            v = env.ctx.tls_var("tlx", 8, elem=8)
            v.write(0)

        def make():
            for _ in range(n_tasks):
                env.task(task_body, annotate_deferrable=True)
            env.taskwait()
        env.parallel_single(make, num_threads=1)

    def test_same_thread_same_dtv_suppressed(self, run_taskgrind):
        tool, _ = run_taskgrind(lambda env: self._tls_body(env), nthreads=1)
        assert tool.reports == []
        assert tool.suppressor.stats.tls_suppressed >= 1

    def test_ablation_flag_restores_fp(self, run_taskgrind):
        opts = TaskgrindOptions()
        opts.suppression.suppress_tls = False
        tool, _ = run_taskgrind(lambda env: self._tls_body(env), nthreads=1,
                                options=opts)
        assert len(tool.reports) >= 1

    def test_intra_segment_dtv_churn_survives(self, run_taskgrind):
        """The paper's stated limitation: a dynamic TLS block allocated and
        freed within the segment is absent from the snapshot, so the
        conflict is NOT suppressed."""
        def body(env):
            machine = env.ctx.machine
            addr_box = {}

            def task_body(tv):
                tid = machine.scheduler.current_id()
                mod = machine.tls.open_module(tid, 64)
                base = machine.tls.module_base(tid, mod)
                addr_box.setdefault("addr", base)
                # both tasks run on thread 0 at 1 thread: same base
                env.ctx.write_mem(addr_box["addr"], 8)
                machine.tls.close_module(tid, mod)

            def make():
                for _ in range(2):
                    env.task(task_body, annotate_deferrable=True)
                env.taskwait()
            env.parallel_single(make, num_threads=1)

        tool, _ = run_taskgrind(body, nthreads=1)
        # the conflict survives (paper: "a false-positive would still be
        # reported"), and the generation counter flagged the churn
        assert len(tool.reports) >= 1


class TestEndToEndCounts:
    def test_naive_lulesh_has_many_candidates(self, run_taskgrind):
        """Section IV motivation: with every suppression off, even a tiny
        correct program floods candidate conflicts."""
        opts = TaskgrindOptions()
        opts.suppression.suppress_recycling = False
        opts.suppression.suppress_stack = False
        opts.suppression.suppress_tls = False
        opts.suppression.ignore_list = ()

        def body(env):
            def task_body(tv):
                z = env.ctx.stack_var("z", 8, elem=8)
                z.write(0)
                v = env.ctx.tls_var("tly", 8, elem=8)
                v.write(0)
                x = env.ctx.malloc(8)
                x.write(0)
                env.ctx.free(x)

            def make():
                for _ in range(4):
                    env.task(task_body, annotate_deferrable=True)
                env.taskwait()
            env.parallel_single(make, num_threads=1)

        naive_tool, _ = run_taskgrind(body, nthreads=1, options=opts)
        clean_tool, _ = run_taskgrind(body, nthreads=1)
        assert len(naive_tool.reports) > 3 * max(1, len(clean_tool.reports))
        assert clean_tool.reports == []
