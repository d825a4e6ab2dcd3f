"""Shared fixtures for core tests: run a guest OpenMP program under a
SegmentBuilder-only observer or under the full Taskgrind tool."""

from __future__ import annotations

import pytest

from repro.core.segments import SegmentBuilder
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.machine.machine import Machine
from repro.openmp.api import make_env


class BuilderObserver:
    """Minimal OMPT observer feeding a SegmentBuilder + recording accesses."""

    def __init__(self, machine, config=None):
        self.builder = SegmentBuilder(machine, config)
        self.machine = machine

    def _tid(self):
        return self.machine.scheduler.current_id()

    def on_thread_begin(self, tid): ...
    def on_thread_end(self, tid): ...

    def on_parallel_begin(self, region, task):
        self.builder.on_parallel_begin(region, task, self._tid())

    def on_parallel_end(self, region, task):
        self.builder.on_parallel_end(region, task, self._tid())

    def on_implicit_task_begin(self, region, task):
        self.builder.on_implicit_task_begin(region, task, self._tid())

    def on_implicit_task_end(self, region, task):
        self.builder.on_implicit_task_end(region, task, self._tid())

    def on_task_create(self, task, parent):
        self.builder.on_task_create(task, parent, self._tid())

    def on_task_dependences(self, task, deps): ...

    def on_task_dependence_pair(self, pred, succ, dep):
        self.builder.on_task_dependence_pair(pred, succ, dep)

    def on_task_schedule_begin(self, task, tid):
        self.builder.on_task_schedule_begin(task, tid)

    def on_task_schedule_end(self, task, tid, completed):
        self.builder.on_task_schedule_end(task, tid, completed)

    def on_task_detach_fulfill(self, task, tid):
        self.builder.on_task_detach_fulfill(task, tid)

    def on_sync_region_begin(self, kind, task, tid):
        self.builder.on_sync_begin(kind, task, tid)

    def on_sync_region_end(self, kind, task, tid):
        self.builder.on_sync_end(kind, task, tid)

    def on_mutex_acquired(self, name, tid): ...
    def on_mutex_released(self, name, tid): ...


class GraphRun:
    """Run result: the graph + per-task segment lookups."""

    def __init__(self, machine, builder):
        self.machine = machine
        self.builder = builder
        self.graph = builder.graph

    def task_segments(self, name_substr):
        """Segments of tasks whose symbol name contains ``name_substr``."""
        return [s for s in self.graph.segments
                if s.task is not None and name_substr in s.task.symbol_name]

    def first_segment(self, name_substr):
        segs = self.task_segments(name_substr)
        assert segs, f"no segment for task {name_substr!r}"
        return segs[0]


@pytest.fixture
def run_with_builder():
    """Run body(env) and return a GraphRun with the built segment graph.

    The builder records *every* user access (DBI-style, no symbol filter)
    so graph tests don't depend on the suppression layer.
    """
    def _run(body, nthreads=4, seed=0, config=None):
        machine = Machine(seed=seed)
        env = make_env(machine, nthreads=nthreads)
        obs = BuilderObserver(machine, config)
        env.rt.ompt.register(obs)

        # route accesses into the builder via a thin recording tool
        from repro.vex.tool import Tool

        class Rec(Tool):
            name = "rec"
            is_dbi = True

            def on_access(self, thread_id, addr, size, is_write, symbol,
                          loc, site, atomic):
                # mimic Taskgrind's default ignore-list so graph assertions
                # see only the guest program's own traffic
                if symbol.name.startswith((".omp_task_prologue", "__kmp")):
                    return
                obs.builder.record_access(thread_id, addr, size, is_write,
                                          loc)

        machine.add_tool(Rec())

        def main():
            with env.ctx.function("main", line=1):
                body(env)
        machine.run(main)
        obs.builder.graph.check_acyclic()
        return GraphRun(machine, obs.builder)

    return _run


@pytest.fixture
def run_taskgrind():
    """Run body(env) under the full TaskgrindTool; returns (tool, machine)."""
    def _run(body, nthreads=4, seed=0, options=None):
        machine = Machine(seed=seed)
        tool = TaskgrindTool(options or TaskgrindOptions())
        machine.add_tool(tool)
        env = make_env(machine, nthreads=nthreads)
        env.rt.ompt.register(tool.make_ompt_shim())

        def main():
            with env.ctx.function("main", line=1):
                body(env)
        machine.run(main)
        tool.finalize()
        return tool, machine

    return _run
