"""Tests for the instrumentation layer: hub, client requests, replacement."""

from collections import namedtuple

import pytest

from repro.baselines.archer import ArcherTool
from repro.core.tool import TaskgrindTool
from repro.errors import SegmentationFault
from repro.machine.cost import CostModel, ToolCost
from repro.machine.debuginfo import DebugInfo
from repro.machine.memory import AddressSpace, Region, RegionKind
from repro.vex.client_requests import ClientRequestRouter
from repro.vex.instrument import Instrumentation
from repro.vex.replacement import ReplacementRegistry
from repro.vex.tool import NullTool, Tool

#: the arguments of one ``Tool.on_access`` call
Access = namedtuple("Access", "thread_id addr size is_write symbol loc site "
                              "atomic")


class Capture(Tool):
    name = "capture"

    def __init__(self, dbi=True):
        super().__init__()
        self.is_dbi = dbi
        self.events = []

    def on_access(self, *access):
        self.events.append(Access(*access))


def make_hub(tool=None, tool_cost=None):
    space = AddressSpace()
    space.map_region(Region("g", 0x1000, 0x1000, RegionKind.GLOBALS))
    cost = CostModel(tool_cost=tool_cost)
    hub = Instrumentation(space, cost)
    hub.tool = tool
    debug = DebugInfo()
    return hub, cost, debug


class TestInstrumentationHub:
    def test_dispatch_to_dbi_tool(self):
        tool = Capture(dbi=True)
        hub, _, debug = make_hub(tool)
        sym = debug.intern("main", instrumented=True)
        hub.access(0x1000, 8, True, thread=None, symbol=sym, loc=None)
        assert len(tool.events) == 1
        assert tool.events[0].is_write

    def test_compile_time_tool_scope(self):
        tool = Capture(dbi=False)
        hub, _, debug = make_hub(tool)
        blob = debug.intern("vendor", instrumented=False)
        hub.access(0x1000, 8, True, thread=None, symbol=blob, loc=None)
        assert tool.events == []
        user = debug.intern("main", instrumented=True)
        hub.access(0x1000, 8, False, thread=None, symbol=user, loc=None)
        assert len(tool.events) == 1
        assert hub.stats() == {"accesses": 2, "dispatched": 1,
                               "unobserved": 1}

    def test_unmapped_access_faults_before_dispatch(self):
        tool = Capture()
        hub, _, debug = make_hub(tool)
        sym = debug.intern("main")
        with pytest.raises(SegmentationFault):
            hub.access(0x10, 8, True, thread=None, symbol=sym, loc=None)
        assert tool.events == []

    def test_observed_access_costs_more(self):
        heavy = ToolCost(access_factor=50.0)
        tool = Capture(dbi=True)
        hub_obs, cost_obs, debug = make_hub(tool, tool_cost=heavy)
        sym = debug.intern("main")
        hub_obs.access(0x1000, 64, True, thread=None, symbol=sym, loc=None)
        hub_plain, cost_plain, debug2 = make_hub(tool_cost=heavy)
        sym2 = debug2.intern("main")
        hub_plain.access(0x1000, 64, True, thread=None, symbol=sym2, loc=None)
        assert cost_obs.clock.makespan_ops > 10 * cost_plain.clock.makespan_ops

    def test_atomic_flag_propagates(self):
        tool = Capture()
        hub, _, debug = make_hub(tool)
        sym = debug.intern("main")
        hub.access(0x1000, 8, True, thread=None, symbol=sym, loc=None,
                   atomic=True)
        assert tool.events[0].atomic

    @pytest.mark.parametrize("tool_cls,plain,atomic", [
        (TaskgrindTool, 95.0, 117.0),
        (ArcherTool, 13.0, 13.0)], ids=["taskgrind", "archer"])
    def test_plain_and_atomic_charges(self, tool_cls, plain, atomic):
        """One observed access of each kind under the tool's own
        ``ToolCost``: Taskgrind charges its cheaper recorder factor on
        plain accesses only, a baseline its one ``access_factor`` on
        both.  (A compile-time capture pays no translation charge, so the
        clock holds the access charge alone.)"""
        for is_atomic, factor in ((False, plain), (True, atomic)):
            hub, cost, debug = make_hub(Capture(dbi=False),
                                        tool_cost=tool_cls.cost)
            sym = debug.intern("main")
            hub.access(0x1000, 8, True, thread=None, symbol=sym, loc=None,
                       atomic=is_atomic)
            assert cost.clock.makespan_ops \
                == factor * cost.params.access_ops(8)


class TestClientRequests:
    def test_dispatch_and_result(self):
        router = ClientRequestRouter()
        router.subscribe("ping", lambda p: p + 1)
        assert router.request("ping", 41) == 42
        assert router.request_count == 1

    def test_multiple_handlers_last_result_wins(self):
        router = ClientRequestRouter()
        router.subscribe("x", lambda p: 1)
        router.subscribe("x", lambda p: 2)
        assert router.request("x") == 2

    def test_unknown_request_is_noop(self):
        router = ClientRequestRouter()
        assert router.request("nothing", 1) is None


class TestReplacement:
    def test_replace_and_query(self):
        reg = ReplacementRegistry()
        assert not reg.is_replaced("free")
        reg.replace("free")
        assert reg.is_replaced("free")
        reg.remove("free")
        assert not reg.is_replaced("free")

    def test_custom_handler_called(self):
        reg = ReplacementRegistry()
        calls = []
        reg.replace("malloc", lambda size: calls.append(size))
        reg.call("malloc", 64)
        assert calls == [64]

    def test_clear(self):
        reg = ReplacementRegistry()
        reg.replace("a")
        reg.replace("b")
        reg.clear()
        assert not reg.is_replaced("a") and not reg.is_replaced("b")


class TestToolBase:
    def test_null_tool_defaults(self):
        t = NullTool()
        assert t.memory_bytes(123) == 0
        assert t.finalize() == []
        t.compile_check(object())          # accepts anything

    def test_sees_matrix(self):
        from repro.machine.debuginfo import Symbol
        dbi, ct = Capture(dbi=True), Capture(dbi=False)
        inst = Symbol("a", instrumented=True)
        blob = Symbol("b", instrumented=False)
        assert dbi.sees(inst) and dbi.sees(blob)
        assert ct.sees(inst) and not ct.sees(blob)
