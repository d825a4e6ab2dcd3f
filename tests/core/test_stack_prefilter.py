"""Section IV-D before the pair check changes no surviving conflict.

Given the run's suppression engine, :func:`repro.core.analysis.find_races`
never checks a segment pair that shares bytes only between intervals the
engine classes local to their own segments' frames.  Against the
unfiltered pass (``find_races(graph)``) plus
:meth:`~repro.core.suppress.SuppressionEngine.filter_all`:

* the candidates that survive suppression (pairs and byte ranges), the
  reports with their witnesses and notes, and the ``survived``, ``tls``
  and ``tls_gen_warnings`` counts are equal;
* every pair that is still checked keeps its full conflict rows, and each
  skipped pair was one whose every piece the unfiltered run suppressed as
  stack-local, so ``stack`` and ``fully_suppressed_pairs`` shrink by
  exactly the skipped rows and pairs;
* with the stack rule off (or no address space) every count, the rows and
  the whole ``suppress`` block are equal.

Run on Table I at three seeds, on the fuzz corpus with elision on and off,
on hand-built graphs of the rule's edge cases, and on random programs that
push and pop frames across task switches on one thread while tasks write
into a parent's frame (TMB 1001-stack).
"""

import contextlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.analysis as analysis_mod
from repro.bench.runner import run_benchmark
from repro.core.analysis import analyze_and_suppress, find_races
from repro.core.reports import report_to_dict
from repro.core.suppress import SuppressionConfig, SuppressionEngine
from repro.core.tool import TaskgrindTool
from repro.machine.machine import Machine
from repro.machine.memory import Region, RegionKind
from repro.obs.metrics import get_registry
from repro.openmp.api import make_env
from tests.core.test_suppress_parity import (CORPUS, SP, STACK0, STACK1,
                                             TABLE1, TOGGLES,
                                             _edge_case_graph, _exec_corpus)


def _rows(table):
    return set(zip(*(col.tolist() for col in
                     (table.i, table.j, table.lo, table.hi))))


def _pass(graph, space, config, skip):
    """One pass plus suppression: ``(partial, engine, survivors, counts)``,
    ``counts`` the non-zero analysis and suppression counters it booked and
    its DP queries."""
    reg = get_registry()
    mark = reg.mark()
    queries = graph.q_dp
    engine = SuppressionEngine(space, config)
    partial = find_races(graph, engine=engine if skip else None)
    survivors = engine.filter_all(partial.table)
    counts = {k: v for k, v in reg.delta_since(mark)["counters"].items()
              if v and k.startswith(("analysis.", "suppress."))}
    counts["dp_queries"] = graph.q_dp - queries
    return partial, engine, survivors, counts


def assert_prefilter_exact(graph, space, config=None):
    """The skipping pass against the unfiltered one; returns the skipping
    pass's :class:`~repro.core.analysis.PartialAnalysis`."""
    config = config or SuppressionConfig()
    base, base_engine, want, base_counts = _pass(graph, space, config, False)
    got, engine, survivors, counts = _pass(graph, space, config, True)
    assert [(c.s1.id, c.s2.id, c.ranges.pairs()) for c in survivors] == \
        [(c.s1.id, c.s2.id, c.ranges.pairs()) for c in want]
    doc, base_doc = engine.stats_doc(), base_engine.stats_doc()
    for key in ("survived", "tls", "tls_gen_warnings"):
        assert doc[key] == base_doc[key], key
    rows, base_rows = _rows(got.table), _rows(base.table)
    pairs = {row[:2] for row in rows}
    assert rows == {row for row in base_rows if row[:2] in pairs}
    skipped = {row for row in base_rows if row[:2] not in pairs}
    assert base_doc["stack"] - doc["stack"] == len(skipped)
    assert base_doc["fully_suppressed_pairs"] \
        - doc["fully_suppressed_pairs"] == len({r[:2] for r in skipped})
    if not config.suppress_stack or space is None:
        assert got.stack_local_intervals == 0
        assert doc == base_doc
        assert counts == base_counts
    return got


# ---------------------------------------------------------------------------
# recorded runs
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _unfiltered():
    """Run the report step on the unfiltered pass: ``find_races`` ignores
    the engine it is given."""
    unfiltered_find_races = analysis_mod.find_races

    def find_races_unfiltered(graph, *, engine=None, **kwargs):
        return unfiltered_find_races(graph, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis_mod, "find_races", find_races_unfiltered)
        yield


def _report_docs(tool, machine):
    """The run's reports as the online report step builds them, with
    ``--explain`` witnesses, by a fresh engine of the run's config."""
    engine = SuppressionEngine(machine.space, tool.options.suppression)
    found = analyze_and_suppress(tool.builder.graph, engine,
                                 machine.allocator, select=tool._select,
                                 explain=True, notes=("note",))
    return [report_to_dict(r) for r in found.reports], engine.stats_doc()


def assert_reports_equal(tool, machine):
    got, doc = _report_docs(tool, machine)
    with _unfiltered():
        want, base_doc = _report_docs(tool, machine)
    assert got == want
    for key in ("survived", "tls", "tls_gen_warnings"):
        assert doc[key] == base_doc[key], key


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table1_programs(seed):
    skipped = 0
    for program, nthreads in TABLE1:
        result = run_benchmark(program, "taskgrind", nthreads=nthreads,
                               seed=seed, keep_machine=True)
        tool, machine = result.tool_obj, result.machine
        graph = tool.builder.graph
        for suppress_stack, suppress_tls in TOGGLES:
            config = SuppressionConfig(suppress_stack=suppress_stack,
                                       suppress_tls=suppress_tls)
            got = assert_prefilter_exact(graph, machine.space, config)
            skipped += find_races(graph).pairs_total - got.pairs_total
        assert_reports_equal(tool, machine)
    assert skipped > 0


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.rsplit("/", 1)[-1])
def test_fuzz_corpus(path):
    for seed in (0, 1):
        for elide in (True, False):
            tool, machine = _exec_corpus(path, seed, elide_sites=elide)
            graph = tool.builder.graph
            for suppress_stack, suppress_tls in TOGGLES:
                assert_prefilter_exact(graph, machine.space, SuppressionConfig(
                    suppress_stack=suppress_stack,
                    suppress_tls=suppress_tls))
            assert_reports_equal(tool, machine)


# ---------------------------------------------------------------------------
# edge cases on hand-built graphs
# ---------------------------------------------------------------------------

#: across thread 0's start stack pointer, with no other endpoint in
#: ``[SP, SP + 8)``: the rank of the first endpoint at or above ``SP`` is
#: this interval's end, so a rank comparison would class it local
PAST_SP = (SP - 8, SP + 8)
#: across the end of thread 0's stack region into thread 1's
ACROSS_REGIONS = (STACK0[1] - 8, STACK0[1] + 8)
#: in thread 1's stack, low in it
IN_STACK1 = (STACK1[0] + 0x1000, STACK1[0] + 0x1008)


def _add(graph, thread, bounds, sp, *pieces):
    seg = graph.new_segment(thread_id=thread, task=None, kind="task",
                            sp_at_start=sp, stack_bounds=bounds)
    for lo, hi in pieces:
        seg.record(lo, hi - lo, True)
    seg.open = False
    return seg


def _edge_graph():
    """The suppression parity graph, plus mutually unordered segments that
    share exactly one interval with their partner:

    * two thread-0 segments each writing :data:`PAST_SP`, which ends
      past their start stack pointer: not local, the conflict is real;
    * a thread-0 segment whose stack bounds span both stacks writing
      :data:`ACROSS_REGIONS`, and a thread-1 segment writing its upper
      half, local in thread 1's own frames: the bytes lie in thread 1's
      stack, where the thread-0 segment is a stranger;
    * a thread-0 segment whose stack bounds name thread 1's stack region,
      and a thread-1 segment, both writing :data:`IN_STACK1`.
    """
    graph, machine = _edge_case_graph()
    _add(graph, 0, STACK0, SP, PAST_SP)
    _add(graph, 0, STACK0, SP, PAST_SP)
    _add(graph, 0, (STACK0[0], STACK1[1]), STACK1[1], ACROSS_REGIONS)
    _add(graph, 1, STACK1, STACK1[1], (STACK1[0], ACROSS_REGIONS[1]))
    _add(graph, 0, STACK1, STACK1[1], IN_STACK1)
    _add(graph, 1, STACK1, STACK1[1], IN_STACK1)
    return graph, machine


@pytest.mark.parametrize("suppress_stack,suppress_tls", TOGGLES)
def test_edge_cases(suppress_stack, suppress_tls):
    graph, machine = _edge_graph()
    assert_prefilter_exact(graph, machine.space, SuppressionConfig(
        suppress_stack=suppress_stack, suppress_tls=suppress_tls))


def test_edge_case_conflicts_survive():
    """Each edge case's one shared interval is reported, and exactly the
    intervals inside their own segments' frames are classed local."""
    graph, machine = _edge_graph()
    partial = find_races(graph, engine=SuppressionEngine(machine.space))
    ranges = {c.key(): c.ranges.pairs() for c in
              SuppressionEngine(machine.space).filter_all(partial.table)}
    assert ranges[(3, 4)] == [PAST_SP]
    assert ranges[(5, 6)] == [(STACK1[0], ACROSS_REGIONS[1])]
    assert ranges[(7, 8)] == [IN_STACK1]
    # BELOW_SP in parity segments 0 and 1, and the writes of the three
    # thread-1 segments whose stack bounds are thread 1's
    assert partial.stack_local_intervals == 5


def test_stack_region_end_is_the_interval_end():
    """An interval in its own frames that ends exactly at its region's end
    is local; its pair, sharing nothing else, is never checked."""
    graph, machine = _edge_case_graph()
    top = (STACK1[1] - 8, STACK1[1])
    _add(graph, 1, STACK1, STACK1[1], top)
    _add(graph, 1, STACK1, STACK1[1], top)
    got = assert_prefilter_exact(graph, machine.space)
    assert (3, 4) not in {row[:2] for row in _rows(got.table)}
    assert (3, 4) in {row[:2] for row in _rows(find_races(graph).table)}


def test_no_address_space_classes_nothing_local():
    graph, _machine = _edge_graph()
    partial = find_races(graph, engine=SuppressionEngine(None))
    assert partial.stack_local_intervals == 0
    assert _rows(partial.table) == _rows(find_races(graph).table)


def test_unmapped_and_foreign_regions_are_not_local():
    """An address space with no stack regions, and one whose only stack is
    owned by no thread, class nothing local."""
    graph, machine = _edge_graph()
    for region in (Region("heap", STACK0[0], STACK1[1] - STACK0[0],
                          RegionKind.HEAP),
                   Region("stack", STACK0[0], STACK1[1] - STACK0[0],
                          RegionKind.STACK)):
        space = SimpleNamespace(regions=[region])
        partial = find_races(graph, engine=SuppressionEngine(space))
        assert partial.stack_local_intervals == 0
        assert _rows(partial.table) == _rows(find_races(graph).table)


# ---------------------------------------------------------------------------
# frames pushed and popped across task switches
# ---------------------------------------------------------------------------

#: one access: (into the task's own local, else the encountering frame's
#: variable; slot; is_write)
ACCESS = st.tuples(st.booleans(), st.integers(0, 3), st.booleans())
#: one task: helper frames it pushes before its accesses, the accesses,
#: how many children write its local (a pointer into their parent's
#: frame, waited for before it returns), and whether the encountering
#: thread waits for it before the next task
TASK = st.tuples(st.integers(0, 2), st.lists(ACCESS, min_size=1, max_size=4),
                 st.integers(0, 2), st.booleans())


def _frames_program(plan, outer_depth):
    def body(env):
        ctx = env.ctx

        def run_task(depth, accesses, children, parent_var):
            if depth:
                with ctx.function(f"helper{depth}", line=30 + depth):
                    run_task(depth - 1, accesses, children, parent_var)
                return
            local = ctx.stack_var("local", 32, elem=8)
            for own, slot, is_write in accesses:
                var = local if own else parent_var
                if is_write:
                    var.write(slot, line=40 + slot)
                else:
                    var.read(slot, line=50 + slot)
            for c in range(children):
                env.task(lambda tv, c=c: local.write(c % 4, line=60),
                         annotate_deferrable=True)
            if children:
                env.taskwait()

        def encounter(depth):
            if depth:
                with ctx.function(f"outer{depth}", line=10 + depth):
                    encounter(depth - 1)
                return
            shared = ctx.stack_var("shared", 32, elem=8)
            for depth_t, accesses, children, wait in plan:
                env.task(lambda tv, d=depth_t, a=accesses, ch=children:
                         run_task(d, a, ch, shared),
                         annotate_deferrable=True)
                if wait:
                    env.taskwait()
            env.taskwait()

        env.parallel_single(lambda: encounter(outer_depth))
    return body


@given(st.lists(TASK, min_size=1, max_size=5), st.integers(0, 2),
       st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_frames_across_task_switches(plan, outer_depth, seed):
    machine = Machine(seed=seed % 97)
    tool = TaskgrindTool()
    machine.add_tool(tool)
    env = make_env(machine, nthreads=1)
    env.rt.ompt.register(tool.make_ompt_shim())
    body = _frames_program(plan, outer_depth)

    def main():
        with env.ctx.function("main", line=1):
            body(env)
    machine.run(main)
    tool.finalize()
    graph = tool.builder.graph
    for suppress_stack, suppress_tls in TOGGLES:
        assert_prefilter_exact(graph, machine.space, SuppressionConfig(
            suppress_stack=suppress_stack, suppress_tls=suppress_tls))
    assert_reports_equal(tool, machine)
