"""Property tests for happens-before structure over random shaped programs.

Programs are random sequences of parallel regions; each region's single
creates random batches of tasks separated by optional taskwaits.  Structural
invariants that must hold for ANY such program:

* Eq. (1): every access segment of region k happens-before every access
  segment of region k+1 (regions are fork/join-separated);
* within a region, tasks created after a taskwait happen-after every task
  created before it (same parent);
* tasks within one batch (no taskwait between) are pairwise independent;
* the graph is acyclic and every segment is closed at the end.
"""

from typing import List

from hypothesis import given, settings, strategies as st


# program shape: list of regions; each region = list of batch sizes
# (a taskwait separates consecutive batches)
shape = st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=3),
                 min_size=1, max_size=3)


def build_program(regions: List[List[int]]):
    """Return (body, labels) where labels[(r, b, i)] = task name."""
    labels = {}

    def body(env):
        ctx = env.ctx
        scratch = ctx.global_var("hb_scratch", 8 * 64, elem=8)
        slot = [0]

        for r, batches in enumerate(regions):
            def single_body(r=r, batches=batches):
                for b, count in enumerate(batches):
                    for i in range(count):
                        name = f"t.r{r}.b{b}.{i}"
                        labels[(r, b, i)] = name
                        my_slot = slot[0]
                        slot[0] += 1

                        def task_body(tv, my_slot=my_slot):
                            scratch.write(my_slot)
                        env.task(task_body, name=name,
                                 annotate_deferrable=True)
                    if b < len(batches) - 1:
                        env.taskwait()
                env.taskwait()
            env.parallel_single(single_body)
    return body, labels


class TestHbShapeProperties:
    @given(shape)
    @settings(max_examples=40, deadline=None)
    def test_structure(self, regions):
        # hypothesis + fixtures don't mix; build the runner inline
        from tests.core.conftest import BuilderObserver
        from repro.machine.machine import Machine
        from repro.openmp.api import make_env
        from repro.vex.tool import Tool

        body, labels = build_program(regions)
        machine = Machine(seed=1)
        env = make_env(machine, nthreads=4)
        obs = BuilderObserver(machine)
        env.rt.ompt.register(obs)

        class Rec(Tool):
            name = "rec"
            is_dbi = True

            def on_access(self, thread_id, addr, size, is_write, symbol,
                          loc, site, atomic):
                if symbol.name.startswith((".omp_task_prologue", "__kmp")):
                    return
                obs.builder.record_access(thread_id, addr, size, is_write,
                                          loc)

        machine.add_tool(Rec())

        def main():
            with env.ctx.function("main", line=1):
                body(env)
        machine.run(main)

        graph = obs.builder.graph
        graph.check_acyclic()
        assert all(not s.open or s.kind == "serial"
                   for s in graph.segments)

        def seg_of(name):
            for s in graph.segments:
                if s.task is not None and s.task.symbol_name == name:
                    return s
            raise AssertionError(f"no segment for {name}")

        # Eq. (1): cross-region ordering
        for r in range(len(regions) - 1):
            a = seg_of(labels[(r, 0, 0)])
            b = seg_of(labels[(r + 1, 0, 0)])
            assert graph.happens_before(a, b)

        for r, batches in enumerate(regions):
            # taskwait orders consecutive batches
            for b in range(len(batches) - 1):
                for i in range(batches[b]):
                    for j in range(batches[b + 1]):
                        assert graph.happens_before(
                            seg_of(labels[(r, b, i)]),
                            seg_of(labels[(r, b + 1, j)]))
            # batch members are pairwise independent
            for b, count in enumerate(batches):
                for i in range(count):
                    for j in range(i + 1, count):
                        assert graph.independent(
                            seg_of(labels[(r, b, i)]),
                            seg_of(labels[(r, b, j)]))
