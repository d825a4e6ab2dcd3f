"""Property tests for the perf fast paths (write-combining recorder,
happens-before, batched analysis).

Three contracts, each checked against the pre-existing implementation as
oracle (``tests/core/analysis_oracle.py``):

* the write-combining recorder (``Segment.record`` + drain) leaves
  byte-identical access sets to one interval-tree insert per access
  (``TreeSegment.record_immediate``), for any access stream and for the
  access log of a whole tool run, drained once or after every access;
* every happens-before answer (per-pair queries, witness evidence, the
  batched packed-row mask) agrees with a breadth-first search over the
  graph on **every** segment pair of randomly shaped programs;
* the analysis pass (at several worker counts) produces the candidate set
  of the faithful all-pairs pass.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.core.analysis import find_races
from repro.core.segments import Segment
from repro.core.suppress import SuppressionEngine
from repro.core.tool import TaskgrindOptions, TaskgrindTool
from repro.machine.machine import Machine
from repro.openmp.api import make_env
from tests.cilk.test_cilk import fib_program, run_cilk
from tests.core.analysis_oracle import (TreeSegment, assert_hb_matches_dp,
                                        assert_sets_match_log,
                                        find_races_naive, naive_table)
from tests.qthreads.test_qthreads import run_qt


# ---------------------------------------------------------------------------
# recorder parity
# ---------------------------------------------------------------------------

# streams biased toward the recorder's interesting regimes: slot collisions
# (same (lo >> 6) & 15 cache line), hull extensions, adjacent coalescing
access = st.tuples(st.integers(0, 2048),          # addr
                   st.integers(1, 16),            # size
                   st.booleans())                 # is_write


@st.composite
def sweeps(draw):
    """A strided sweep of one direction, long enough to materialize the
    direct-mapped cells (past ``_WC_ACTIVATE`` accesses) and grow them past
    16 bytes, optionally interleaved with a second sweep 1 KiB away: the
    same slot, so the two evict each other into the spill."""
    base = draw(st.integers(0, 2048))
    stride = draw(st.integers(1, 16))
    size = draw(st.integers(1, 16))
    is_write = draw(st.booleans())
    sweep = [(base + k * stride, size, is_write)
             for k in range(draw(st.integers(9, 200)))]
    if not draw(st.booleans()):
        return sweep
    return [acc for a in sweep for acc in (a, (a[0] + 1024, a[1], a[2]))]


streams = st.one_of(st.lists(access, max_size=300), sweeps())


class TestRecorderParity:
    @given(streams)
    @settings(max_examples=80, deadline=None)
    def test_byte_identical_trees(self, stream):
        fast = Segment(0, 0, None, "task")
        legacy = TreeSegment()
        for addr, size, w in stream:
            fast.record(addr, size, w, None)
            legacy.record_immediate(addr, size, w)
        fast.flush_accesses()
        assert fast.reads.pairs() == legacy.reads.pairs()
        assert fast.writes.pairs() == legacy.writes.pairs()
        assert fast.reads.total_bytes == legacy.reads.total_bytes
        assert fast.writes.total_bytes == legacy.writes.total_bytes

    @given(streams, streams)
    @settings(max_examples=40, deadline=None)
    def test_interleaved_flushes(self, s1, s2):
        """Reading ``.reads``/``.writes`` mid-stream (which drains pending
        cells into the non-empty sets) must not change the final sets."""
        fast = Segment(0, 0, None, "task")
        legacy = TreeSegment()
        for addr, size, w in s1:
            fast.record(addr, size, w, None)
            legacy.record_immediate(addr, size, w)
        fast.flush_accesses()                     # mid-stream drain
        for addr, size, w in s2:
            fast.record(addr, size, w, None)
            legacy.record_immediate(addr, size, w)
        fast.flush_accesses()
        assert fast.reads.pairs() == legacy.reads.pairs()
        assert fast.writes.pairs() == legacy.writes.pairs()


# ---------------------------------------------------------------------------
# random programs (shared by the HB and analysis parity tests)
# ---------------------------------------------------------------------------

def _random_body(rng: random.Random, *, with_deps: bool):
    """A random nest of parallel regions / task batches / taskwaits /
    taskgroups, with random accesses into a shared arena."""
    n_regions = rng.randint(1, 2)
    plan = []
    for _ in range(n_regions):
        n_batches = rng.randint(1, 3)
        batches = []
        for _ in range(n_batches):
            tasks = []
            for _ in range(rng.randint(1, 3)):
                deps = ()
                if with_deps and rng.random() < 0.4:
                    deps = tuple(sorted({rng.randrange(3)
                                         for _ in range(rng.randint(1, 2))}))
                tasks.append((rng.randrange(8),          # slot written
                              rng.randrange(8),          # slot read
                              deps))
            sep = rng.choice(["taskwait", "taskgroup", "none"])
            batches.append((tasks, sep))
        plan.append(batches)

    def body(env):
        arena = env.ctx.global_var("fp_arena", 8 * 8, elem=8)
        tokens = env.ctx.global_var("fp_deps", 8 * 3, elem=8)

        for batches in plan:
            def single_body(batches=batches):
                for tasks, sep in batches:
                    def launch():
                        for wslot, rslot, deps in tasks:
                            def tb(tv, w=wslot, r=rslot):
                                arena.read(r)
                                arena.write(w)
                            kw = {}
                            if deps:
                                kw["depend"] = {"inout": [
                                    (tokens.index_addr(d), 8)
                                    for d in deps]}
                            env.task(tb, **kw)
                    if sep == "taskgroup":
                        env.taskgroup(launch)
                    else:
                        launch()
                        if sep == "taskwait":
                            env.taskwait()
                env.taskwait()
            env.parallel_single(single_body)
    return body


def _run(body, *, nthreads: int, seed: int,
         drain_every_access: bool = False) -> TaskgrindTool:
    """Run ``body`` under Taskgrind with the builder's access log on.

    ``drain_every_access`` sets a memory budget that never trips but is
    checked after every access: the check's footprint model reads every
    segment's sets, so each open segment drains into a non-empty set over
    and over, as a mid-run checkpoint does.
    """
    machine = Machine(seed=seed)
    opts = TaskgrindOptions(model_multithread_lockup=False)
    if drain_every_access:
        opts.memory_budget = 10 ** 12
    tool = TaskgrindTool(opts)
    if drain_every_access:
        tool._budget_check_every = 1
    machine.add_tool(tool)
    tool.builder.access_log = []
    env = make_env(machine, nthreads=nthreads)
    env.rt.ompt.register(tool.make_ompt_shim())

    def main():
        with env.ctx.function("main", line=1):
            body(env)
    machine.run(main)
    return tool


# ---------------------------------------------------------------------------
# happens-before vs a breadth-first search
# ---------------------------------------------------------------------------

def _qthreads_body(env):
    """A FEB transfer between two qthreads and a third one unordered with
    both."""
    data = env.ctx.malloc(16, name="data")
    flag = env.ctx.malloc(8, name="flag")

    def producer():
        data.write(0, 1, line=7)
        env.writeEF(flag, 1)

    def consumer():
        env.readFE(flag)
        data.read(0, line=12)

    def bystander():
        data.write(8, 2, line=15)

    env.fork(producer)
    env.fork(consumer)
    env.fork(bystander)


def _graph_of(shape: str, prog_seed: int, nthreads: int):
    if shape == "cilk":
        tool = TaskgrindTool()
        run_cilk(fib_program(6), tool=tool, nworkers=nthreads,
                 seed=prog_seed % 97)
    elif shape == "qthreads":
        tool = TaskgrindTool()
        # a consumer blocked on an empty FEB holds its shepherd: one
        # shepherd alone would deadlock
        run_qt(_qthreads_body, tool=tool, nworkers=max(nthreads, 2),
               seed=prog_seed % 97)
    else:
        body = _random_body(random.Random(prog_seed),
                            with_deps=shape == "dependences")
        tool = _run(body, nthreads=nthreads, seed=prog_seed % 97)
    return tool.builder.graph


class TestHbAgainstOracle:
    @given(st.sampled_from(["fork-join", "dependences", "cilk", "qthreads"]),
           st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]))
    @example("cilk", 3, 4)
    @example("qthreads", 3, 4)
    @settings(max_examples=30, deadline=None)
    def test_all_pairs_agree(self, shape, prog_seed, nthreads):
        """Fork-join, task-dependence, Cilk and Qthreads graphs all answer
        happens-before from the one DP, like a search over the graph."""
        graph = _graph_of(shape, prog_seed, nthreads)
        assert len(graph.segments) > 2
        assert_hb_matches_dp(graph)


# ---------------------------------------------------------------------------
# analysis pass parity
# ---------------------------------------------------------------------------

def _canon(cands) -> List[Tuple]:
    return sorted((c.key(), tuple(c.ranges.pairs())) for c in cands)


class TestAnalysisParity:
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 4]))
    @settings(max_examples=20, deadline=None)
    def test_passes_agree(self, prog_seed, nthreads):
        body = _random_body(random.Random(prog_seed), with_deps=True)
        tool = _run(body, nthreads=nthreads, seed=prog_seed % 97)
        graph = tool.builder.graph
        naive = _canon(find_races_naive(graph))
        for workers in (1, 2, 4):
            par = find_races(graph, workers=workers).candidates
            assert _canon(par) == naive
            # any worker count promises a deterministic sorted order
            assert [c.key() for c in par] == sorted(c.key() for c in par)

    @given(st.integers(0, 10 ** 6), st.booleans())
    @example(7, True)
    @settings(max_examples=12, deadline=None)
    def test_fast_tool_matches_legacy_tool(self, prog_seed,
                                           drain_every_access):
        """End-to-end: the recorder's sets equal per-access tree inserts of
        the run's access log (also when every access is followed by a
        drain), the HB tiers match the DP on the same graph, and the
        reports are the survivors of the all-pairs pass's suppression."""
        body = _random_body(random.Random(prog_seed), with_deps=True)
        tool = _run(body, nthreads=2, seed=prog_seed % 97,
                    drain_every_access=drain_every_access)
        assert tool.budget_tripped_at is None
        graph = tool.builder.graph
        reports = tool.finalize()
        assert_sets_match_log(graph, tool.builder.access_log)
        assert_hb_matches_dp(graph)
        table = naive_table(graph)
        skipping = find_races(graph, engine=tool.suppressor).table
        assert tool.raw_candidates == skipping.pair_count() \
            <= table.pair_count()
        engine = SuppressionEngine(tool.machine.space,
                                   tool.options.suppression)
        assert [(r.s1.id, r.s2.id) for r in reports] == \
            [c.key() for c in engine.filter_all(table)]
