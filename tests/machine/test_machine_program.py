"""Integration tests: Machine + GuestContext + instrumentation funnel."""

from collections import namedtuple

import pytest

from repro.errors import MachineError, SegmentationFault
from repro.machine.machine import Machine
from repro.machine.program import GuestContext
from repro.vex.tool import NullTool, Tool

#: the arguments of one ``Tool.on_access`` call
Access = namedtuple("Access", "thread_id addr size is_write symbol loc site "
                              "atomic")


class RecordingTool(Tool):
    """Captures every access and free for assertions."""

    name = "recorder"

    def __init__(self, dbi=True):
        super().__init__()
        self.is_dbi = dbi
        self.accesses = []
        self.frees = []

    def on_access(self, *access):
        self.accesses.append(Access(*access))

    def on_free(self, e):
        self.frees.append(e)


def run_program(body, tool=None, seed=0):
    m = Machine(seed=seed)
    if tool is not None:
        m.add_tool(tool)
    ctx = GuestContext(m, source_file="main.c")
    m.run(lambda: body(ctx))
    return m


def test_basic_heap_access_events():
    tool = RecordingTool()

    def body(ctx):
        with ctx.function("main", line=1):
            x = ctx.malloc(8, line=3)
            x.write(0, 42, line=5)
            assert x.read(0, line=6) == 42

    run_program(body, tool)
    assert len(tool.accesses) == 2
    w, r = tool.accesses
    assert w.is_write and not r.is_write
    assert w.addr == r.addr
    assert w.loc.line == 5 and r.loc.line == 6
    assert w.symbol.name == "main"


def test_alloc_event_has_stack_trace():
    def body(ctx):
        with ctx.function("main", line=1):
            ctx.line(10)
            with ctx.function("helper", line=20):
                ctx.malloc(16, line=22)

    m = run_program(body, RecordingTool())
    (block,) = m.allocator.all_blocks
    assert block.alloc_site.line == 22
    names = [loc.function for loc in block.alloc_stack]
    assert names == ["main", "helper"]
    assert [loc.line for loc in block.alloc_stack] == [10, 22]


def test_free_event_and_recycling_visible():
    tool = RecordingTool()

    def body(ctx):
        with ctx.function("main"):
            a = ctx.malloc(8)
            ctx.free(a)
            b = ctx.malloc(8)
            assert b.addr == a.addr     # recycling in full effect

    run_program(body, tool)
    assert len(tool.frees) == 1 and not tool.frees[0].retained


def test_compile_time_tool_misses_uninstrumented_symbols():
    """The core DBI-vs-compile-time mechanism."""
    dbi = RecordingTool(dbi=True)
    ct = RecordingTool(dbi=False)

    def body(ctx):
        with ctx.function("main", line=1):
            x = ctx.malloc(8)
            x.write(0)
            with ctx.function("__kmp_internal", instrumented=False,
                              library="libomp.so"):
                x.write(0)     # runtime-internal access

    run_program(body, dbi)
    run_program(body, ct)
    assert len(dbi.accesses) == 2
    assert len(ct.accesses) == 1
    assert ct.accesses[0].symbol.name == "main"


def test_machine_carries_one_tool():
    m = Machine()
    tool = RecordingTool()
    m.add_tool(tool)
    with pytest.raises(MachineError, match="already carries tool"):
        m.add_tool(NullTool())
    assert m.tool is tool and m.instrumentation.tool is tool


def test_stack_vars_alias_across_sequential_calls():
    addrs = []

    def body(ctx):
        with ctx.function("main"):
            for _ in range(2):
                with ctx.function("task_body"):
                    v = ctx.stack_var("x", 8)
                    v.write(0)
                    addrs.append(v.addr)

    run_program(body, RecordingTool())
    assert addrs[0] == addrs[1]


def test_tls_vars_per_thread():
    addrs = {}

    def body(ctx):
        m = ctx.machine

        def worker():
            mctx = m.context()
            with ctx.function("worker"):
                v = ctx.tls_var("counter", 8)
                addrs[mctx.thread_id] = v.addr
                v.write(0)

        t1 = m.new_thread(worker, "w1")
        t2 = m.new_thread(worker, "w2")
        from repro.machine.threads import ThreadState
        m.scheduler.block_until(
            lambda: t1.state == ThreadState.DONE and t2.state == ThreadState.DONE,
            "join workers")

    run_program(body, RecordingTool())
    vals = list(addrs.values())
    assert len(vals) == 2 and vals[0] != vals[1]


def test_segfault_on_wild_access():
    def body(ctx):
        with ctx.function("main"):
            ctx.write_mem(0x10, 4)    # below every mapped region

    with pytest.raises(SegmentationFault):
        run_program(body)


def test_use_after_free_hits_recycled_region_without_fault():
    """Freed heap stays mapped (region-level), like a real process page."""
    def body(ctx):
        with ctx.function("main"):
            a = ctx.malloc(8)
            ctx.free(a)
            a.write(0)     # UB in C; no segfault at region granularity

    run_program(body)   # must not raise


def test_global_vars_stable_addresses():
    seen = []

    def body(ctx):
        with ctx.function("main"):
            g1 = ctx.global_var("counter", 8)
            g2 = ctx.global_var("counter", 8)
            seen.append((g1.addr, g2.addr))
            g1.write(0, 7)
            assert g2.read(0) == 7

    run_program(body)
    a, b = seen[0]
    assert a == b


def test_cost_model_charges_accesses():
    def body(ctx):
        with ctx.function("main"):
            x = ctx.malloc(800, elem=8)
            x.write_range(0, 100)

    m = run_program(body)
    assert m.cost.counters["accesses"] == 1
    assert m.cost.counters["access_bytes"] == 800
    assert m.cost.seconds > 0


def test_memory_meter_accounts_everything():
    def body(ctx):
        with ctx.function("main"):
            ctx.malloc(1 << 16)
            ctx.global_var("g", 256)

    m = run_program(body)
    meter = m.memory_meter()
    assert meter.heap_high_water >= 1 << 16
    assert meter.globals_bytes >= 256
    assert meter.tls_bytes > 0        # thread 0's TCB + static block
    assert meter.total_bytes == meter.app_bytes  # no tool memory
