"""Edge-case tests for the guest programming API (Buffer, GuestContext)."""

import json
from collections import namedtuple

import pytest

from repro.errors import MachineError
from repro.machine.machine import Machine
from repro.machine.program import GuestContext
from repro.vex.tool import Tool

#: the arguments of one ``Tool.on_access`` call
Access = namedtuple("Access", "thread_id addr size is_write symbol loc site "
                              "atomic")


class Capture(Tool):
    name = "cap"
    is_dbi = True

    def __init__(self):
        super().__init__()
        self.events = []

    def on_access(self, *access):
        self.events.append(Access(*access))


def run(body, tool=None):
    machine = Machine(seed=0)
    if tool is not None:
        machine.add_tool(tool)
    ctx = GuestContext(machine)
    machine.run(lambda: body(ctx))
    return machine


class TestBuffer:
    def test_index_addressing(self):
        def body(ctx):
            with ctx.function("main"):
                buf = ctx.malloc(40, elem=4)
                assert buf.index_addr(0) == buf.addr
                assert buf.index_addr(3) == buf.addr + 12
                assert buf.end == buf.addr + 40
        run(body)

    def test_write_read_value_roundtrip(self):
        def body(ctx):
            with ctx.function("main"):
                buf = ctx.malloc(16, elem=8)
                buf.write(1, "payload")
                assert buf.read(1) == "payload"
                assert buf.read(0) == 0          # untouched default
        run(body)

    def test_empty_range_is_noop(self):
        tool = Capture()

        def body(ctx):
            with ctx.function("main"):
                buf = ctx.malloc(64, elem=8)
                buf.write_range(3, 3)
                buf.read_range(5, 2)
        run(body, tool)
        assert tool.events == []

    def test_range_event_sizes(self):
        tool = Capture()

        def body(ctx):
            with ctx.function("main"):
                buf = ctx.malloc(64, elem=8)
                buf.write_range(0, 8)
        run(body, tool)
        (event,) = tool.events
        assert event.size == 64 and event.is_write

    def test_atomic_accesses(self):
        tool = Capture()

        def body(ctx):
            with ctx.function("main"):
                buf = ctx.malloc(8, elem=8)
                buf.write(0, atomic=True)
                buf.read(0, atomic=True)
        run(body, tool)
        assert all(e.atomic for e in tool.events)

    def test_per_access_line_override(self):
        tool = Capture()

        def body(ctx):
            with ctx.function("main", line=1):
                buf = ctx.malloc(8)
                buf.write(0, line=42)
                buf.read(0)                      # inherits line 42
        run(body, tool)
        assert [e.loc.line for e in tool.events] == [42, 42]


class TestGuestContext:
    def test_nested_function_locations(self):
        locs = []

        def body(ctx):
            with ctx.function("outer", line=1):
                ctx.line(5)
                with ctx.function("inner", line=20):
                    ctx.line(22)
                    locs.append(ctx.current_location)
                locs.append(ctx.current_location)
        run(body)
        assert str(locs[0]).endswith(":22")
        assert str(locs[1]).endswith(":5")

    def test_line_outside_function_rejected(self):
        def body(ctx):
            ctx.line(3)
        with pytest.raises(MachineError):
            run(body)

    def test_stack_vars_freed_on_scope_exit(self):
        addrs = []

        def body(ctx):
            with ctx.function("main"):
                with ctx.function("f"):
                    addrs.append(ctx.stack_var("x", 8).addr)
                with ctx.function("g"):
                    addrs.append(ctx.stack_var("y", 8).addr)
        run(body)
        assert addrs[0] == addrs[1]              # frames alias

    def test_client_request_roundtrip(self):
        def body(ctx):
            ctx.machine.client_requests.subscribe("double", lambda p: p * 2)
            with ctx.function("main"):
                assert ctx.client_request("double", 21) == 42
        run(body)

    def test_compute_charges_time(self):
        def body(ctx):
            with ctx.function("main"):
                ctx.compute(10_000)
        machine = run(body)
        assert machine.cost.seconds > 0

    def test_extensions_slot(self):
        def body(ctx):
            ctx.extensions["custom"] = 123
            with ctx.function("main"):
                assert ctx.extensions["custom"] == 123
        run(body)


class TestLauncher:
    def test_unknown_command(self):
        from repro.__main__ import main
        assert main(["nonsense"]) == 2

    def test_help(self, capsys):
        from repro.__main__ import main
        assert main(["--help"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_dispatch(self, capsys):
        from repro.__main__ import main
        rc = main(["errorreport"])
        assert rc == 0
        assert "Taskgrind report" in capsys.readouterr().out

    def test_offline_parses_its_own_stats_flag(self, tmp_path, capsys):
        """``offline --json --stats`` prints one JSON document with the
        stats embedded: the launcher hands the flag over instead of
        printing the registry as a second document."""
        from repro.__main__ import main
        trace = str(tmp_path / "trace.json")
        assert main(["run", "027-taskdependmissing-orig",
                     "--save-trace", trace]) == 1      # races found
        capsys.readouterr()
        assert main(["offline", trace, "--json", "--stats=json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["schema"] == "taskgrind-offline-stats/1"

    def test_stats_takes_a_following_mode_word(self, capsys):
        """``--stats json`` prints the registry as JSON, as ``--stats=json``
        does; a word after a bare ``--stats`` that is no mode stays the
        subcommand's argument."""
        from repro.__main__ import main
        run = ["run", "027-taskdependmissing-orig", "--tool", "none"]
        for flags in (["--stats", "json"], ["--stats=json"]):
            assert main(run + flags) == 0
            out = capsys.readouterr().out
            doc = json.loads(out[out.index("\n{\n") + 1:])
            assert "counters" in doc
        assert main(["run", "--stats", "027-taskdependmissing-orig",
                     "--tool", "none"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("027-taskdependmissing-orig under none")
        assert "== stats ==" in out


class TestUnwinding:
    def test_guest_exception_in_nested_functions_pops_every_frame(self):
        """A fault three calls deep on one thread unwinds it, and the
        scheduler unwinds the others out of their own nested calls: no
        thread keeps a frame, a debug frame or stack bytes."""
        machine = Machine(seed=1)
        ctx = GuestContext(machine)
        sched = machine.scheduler

        def worker(depth, fail):
            def body():
                def nest(level):
                    with ctx.function(f"f{level}", line=level):
                        ctx.stack_var(f"v{level}", 16).write()
                        sched.yield_point()
                        if level < depth:
                            nest(level + 1)
                        elif fail:
                            raise ValueError("guest fault")
                        else:
                            sched.block_until(lambda: False, "parked")
                nest(0)
            return body

        def main():
            for k in range(1, 4):
                machine.new_thread(worker(2 + k, fail=False))
            worker(3, fail=True)()

        with pytest.raises(ValueError, match="guest fault"):
            machine.run(main)
        contexts = [machine.context(t.id) for t in sched.threads]
        assert len(contexts) == 4
        for tctx in contexts:
            assert tctx.stack.frames == []
            assert tctx.symbols == [] and tctx.lines == []
            assert tctx.stack.used_bytes == 0
            assert tctx.stack.low_water < tctx.stack.region.end
