"""Vectorized Section IV suppression against the scalar per-piece oracle.

``SuppressionEngine.filter_all`` classifies a whole conflict table at
once; it must drop exactly the pieces the per-candidate predicate in
:mod:`tests.core.suppress_oracle` drops, book the same five
``SuppressionStats`` fields, and emit the same profiler counts and tracer
instants in the same order.
"""

import glob
import os
from types import SimpleNamespace

import pytest

from repro.bench import drb, tmb
from repro.bench.programs import BenchProgram
from repro.bench.runner import run_benchmark
from repro.core.analysis import find_races
from repro.core.segments import SegmentGraph
from repro.core.suppress import SuppressionConfig, SuppressionEngine
from repro.core.trace import load_trace, save_trace
from repro.errors import GuestCrash, OutOfMemory, SimDeadlock
from repro.fuzz.executors import _exec_openmp, _exec_qthreads, fuzz_options
from repro.fuzz.shrink import load_reproducer
from repro.machine.memory import AddressSpace, Region, RegionKind
from repro.machine.tls import TlsSnapshot
from repro.obs.prof import get_profiler
from repro.obs.tracer import get_tracer
from repro.workloads.lulesh import LuleshConfig, run_lulesh
from repro.workloads.synthetic import omp_fib
from tests.core.suppress_oracle import ScalarSuppression

CORPUS = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "fuzz", "corpus", "*.json")))

TOGGLES = [(True, True), (False, True), (True, False), (False, False)]


def _keys(candidates):
    return [(c.s1.id, c.s2.id, c.ranges.pairs()) for c in candidates]


def assert_parity(graph, machine, config=None):
    """Both filters over one table: same survivors, same stats."""
    config = config or SuppressionConfig()
    table = find_races(graph).table
    vec = SuppressionEngine(machine.space, config)
    got = vec.filter_all(table)
    oracle = SuppressionEngine(machine.space, config)
    want = ScalarSuppression(oracle).filter_all(table.candidates())
    assert _keys(got) == _keys(want)
    assert vec.stats == oracle.stats
    return vec.stats


def _program(name, entry):
    return BenchProgram(name=name, racy=True, entry=entry,
                        description="suppression parity " + name,
                        source_file=name + ".c",
                        features=frozenset({"task"}))


def _run(program, nthreads, seed=2):
    result = run_benchmark(program, "taskgrind", nthreads=nthreads,
                           seed=seed, keep_machine=True)
    return result.tool_obj, result.machine


# ---------------------------------------------------------------------------
# recorded runs
# ---------------------------------------------------------------------------

TABLE1 = ([(p, 4) for p in drb.all_programs()]
          + [(p, n) for p in tmb.all_programs() for n in (1, 4)])


@pytest.mark.parametrize("program,nthreads", TABLE1,
                         ids=[f"{p.name}-{n}t" for p, n in TABLE1])
def test_table1_programs(program, nthreads):
    tool, machine = _run(program, nthreads)
    for suppress_stack, suppress_tls in TOGGLES:
        config = SuppressionConfig(suppress_stack=suppress_stack,
                                   suppress_tls=suppress_tls)
        assert_parity(tool.builder.graph, machine, config)


def _exec_corpus(path, seed, **overrides):
    program, _expect, options, _note = load_reproducer(path)
    opts = fuzz_options(**dict(options, **overrides))
    run = _exec_qthreads if program.family == "feb" else _exec_openmp
    machine, tool, _addr_map, entry = run(program, seed, opts)
    try:
        machine.run(entry)
    except (SimDeadlock, GuestCrash, OutOfMemory):
        pass                        # the recorded prefix is still evidence
    return tool, machine


@pytest.mark.parametrize("path", CORPUS,
                         ids=[os.path.basename(p) for p in CORPUS])
def test_fuzz_corpus(path):
    for seed in (0, 1):
        # elide_sites=False records the private noise accesses, so the
        # stack and TLS rules see them instead of the elision pre-pass
        for elide in (True, False):
            tool, machine = _exec_corpus(path, seed, elide_sites=elide)
            assert_parity(tool.builder.graph, machine,
                          tool.options.suppression)


def test_fib_every_pair_stack_suppressed():
    tool, machine = _run(_program("fib", lambda env: omp_fib(env, 14)), 4)
    stats = assert_parity(tool.builder.graph, machine)
    assert stats.fully_suppressed_pairs > 1000
    assert stats.survived == 0


def test_lulesh_racy():
    cfg = LuleshConfig(s=8, tel=2, tnl=2, iterations=2, progress=True,
                       racy=True)
    tool, machine = _run(_program("lulesh", lambda env: run_lulesh(env, cfg)),
                         1)
    stats = assert_parity(tool.builder.graph, machine)
    assert stats.survived and stats.fully_suppressed_pairs


def test_offline_loaded_trace(tmp_path):
    cfg = LuleshConfig(s=8, tel=2, tnl=2, iterations=2, progress=True,
                       racy=True)
    tool, machine = _run(_program("lulesh", lambda env: run_lulesh(env, cfg)),
                         1)
    path = str(tmp_path / "lulesh.trace")
    save_trace(tool, machine, path)
    graph, view, _supp = load_trace(path)
    for suppress_stack, suppress_tls in TOGGLES:
        config = SuppressionConfig(suppress_stack=suppress_stack,
                                   suppress_tls=suppress_tls)
        stats = assert_parity(graph, view, config)
        assert bool(stats.stack_suppressed) == suppress_stack


def test_dtv_churn_run(run_taskgrind):
    """A real run whose dynamic TLS block is opened and closed inside each
    segment: the conflict survives and the generation warning fires."""
    def body(env):
        machine = env.ctx.machine
        addr_box = {}

        def task_body(tv):
            tid = machine.scheduler.current_id()
            mod = machine.tls.open_module(tid, 64)
            addr_box.setdefault("addr", machine.tls.module_base(tid, mod))
            env.ctx.write_mem(addr_box["addr"], 8)
            v = env.ctx.tls_var("tlx", 8, elem=8)
            v.write(0)
            machine.tls.close_module(tid, mod)

        def make():
            for _ in range(3):
                env.task(task_body, annotate_deferrable=True)
            env.taskwait()
        env.parallel_single(make, num_threads=1)

    tool, machine = run_taskgrind(body, nthreads=1)
    stats = assert_parity(tool.builder.graph, machine)
    assert stats.tls_suppressed and stats.tls_gen_warnings


# ---------------------------------------------------------------------------
# edge cases on a hand-built graph
# ---------------------------------------------------------------------------

STACK0 = (0x10000, 0x20000)          # thread 0's stack
STACK1 = (0x20000, 0x30000)          # thread 1's stack
TLS0 = 0x40000                       # thread 0's TLS block
SP = 0x18000                         # stack pointer at segment start

BELOW_SP = (0x11000, 0x11008)        # in frames both segments pushed
STRADDLE = (SP - 8, SP + 8)          # across the start stack pointer
OTHER_STACK = (0x21000, 0x21008)     # in thread 1's stack
TLS_COVERED = (TLS0 + 0x10, TLS0 + 0x18)
TLS_UNCOVERED = (TLS0 + 0x800, TLS0 + 0x808)
UNMAPPED = (0x90000, 0x90008)
PIECES = [BELOW_SP, STRADDLE, OTHER_STACK, TLS_COVERED, TLS_UNCOVERED,
          UNMAPPED]


def _edge_case_graph():
    """Three mutually unordered segments writing every piece: two on
    thread 0 (same TCB/DTV but DTV generation churn), one on thread 1."""
    space = AddressSpace()
    space.map_region(Region("stack-t0", STACK0[0], STACK0[1] - STACK0[0],
                            RegionKind.STACK, owner_thread=0))
    space.map_region(Region("stack-t1", STACK1[0], STACK1[1] - STACK1[0],
                            RegionKind.STACK, owner_thread=1))
    space.map_region(Region("tls-t0", TLS0, 0x1000, RegionKind.TLS,
                            owner_thread=0))
    graph = SegmentGraph()
    specs = [(0, STACK0, 1), (0, STACK0, 2), (1, STACK1, 1)]
    for thread, bounds, generation in specs:
        seg = graph.new_segment(thread_id=thread, task=None, kind="task",
                                sp_at_start=SP if thread == 0 else 0x28000,
                                stack_bounds=bounds)
        for lo, hi in PIECES:
            seg.record(lo, hi - lo, True)
        seg.tls_snapshot = TlsSnapshot(
            thread_id=thread, tcb=0x5000 + thread, generation=generation,
            dtv=((1, TLS0, 0x100),))
        seg.open = False
    return graph, SimpleNamespace(space=space)


@pytest.mark.parametrize("suppress_stack,suppress_tls", TOGGLES)
def test_edge_cases(suppress_stack, suppress_tls):
    graph, machine = _edge_case_graph()
    config = SuppressionConfig(suppress_stack=suppress_stack,
                               suppress_tls=suppress_tls)
    stats = assert_parity(graph, machine, config)
    # only the same-thread pair (0, 1) can lose pieces
    assert stats.stack_suppressed == int(suppress_stack)
    assert stats.tls_suppressed == int(suppress_tls)
    assert stats.tls_gen_warnings == (2 if suppress_tls else 0)
    survivors = SuppressionEngine(machine.space, config).filter_all(
        find_races(graph).table)
    same_thread = next(c for c in survivors if c.key() == (0, 1))
    expected = [p for p in PIECES
                if not (suppress_stack and p == BELOW_SP)
                and not (suppress_tls and p == TLS_COVERED)]
    assert same_thread.ranges.pairs() == expected
    # a pair spanning two threads keeps every piece
    for cand in survivors:
        if cand.key() != (0, 1):
            assert cand.ranges.pairs() == PIECES


def test_other_threads_stack_survives():
    """TMB 1001-stack.1: tasks on other threads write the encountering
    thread's stack variable; those pieces are never stack-local."""
    program = tmb.by_name("1001-stack.1")
    tool, machine = _run(program, 4)
    assert_parity(tool.builder.graph, machine)
    assert tool.reports


def test_empty_table():
    graph = SegmentGraph()
    engine = SuppressionEngine(AddressSpace())
    assert engine.filter_all(find_races(graph).table) == []
    assert engine.stats_doc() == {"tls": 0, "stack": 0, "survived": 0,
                                  "fully_suppressed_pairs": 0,
                                  "tls_gen_warnings": 0}


# ---------------------------------------------------------------------------
# observability: same events, same order
# ---------------------------------------------------------------------------

@pytest.fixture
def observed():
    tracer, prof = get_tracer(), get_profiler()
    tracer.enable()
    prof.enable()
    try:
        yield tracer, prof
    finally:
        tracer.reset()
        prof.reset()
        prof.disable()


def _instants(tracer, start):
    """(name, args) of the suppression instants pushed from ring index
    ``start`` on, wall clock left out."""
    return [(ev["name"], {k: v for k, v in ev["args"].items()
                          if k != "wall_s"})
            for ev in list(tracer._events)[start:]
            if ev.get("cat") == "suppress"]


def test_tracer_and_profiler_events_match(observed):
    tracer, prof = observed
    graph, machine = _edge_case_graph()
    tool, run_machine = _run(tmb.by_name("1003-stack.3"), 1)
    for g, m in ((graph, machine), (tool.builder.graph, run_machine)):
        table = find_races(g).table
        start = len(tracer)
        prof.reset()
        SuppressionEngine(m.space).filter_all(table)
        got, got_counts = _instants(tracer, start), prof.count_cells()
        start = len(tracer)
        prof.reset()
        ScalarSuppression(SuppressionEngine(m.space)).filter_all(
            table.candidates())
        assert got == _instants(tracer, start)
        assert got_counts == prof.count_cells()
        assert got
        assert tracer.dropped == 0
