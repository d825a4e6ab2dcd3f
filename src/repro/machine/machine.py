"""The assembled simulated process: Valgrind core + guest process in one.

:class:`Machine` wires together the address space, allocator, TLS registry,
per-thread stacks, the deterministic scheduler, debug info, the cost model and
the instrumentation hub.  One :class:`Machine` is built per benchmark run
(program × tool × thread count × seed) by :class:`repro.bench.runner.Runner`.

Thread-side execution state (the shadow call stack, current source line) is
kept per simulated thread in :class:`ThreadContext`; guest programs manipulate
it only through :class:`repro.machine.program.GuestContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.machine.allocator import Allocator, FastArena
from repro.machine.cost import CostModel, CostParams, MemoryMeter
from repro.machine.debuginfo import DebugInfo, SourceLocation, Symbol
from repro.machine.memory import (AddressSpace, Region, RegionKind,
                                  DEFAULT_HEAP_SIZE, DEFAULT_STACK_SIZE,
                                  GLOBALS_BASE, HEAP_BASE, STACKS_BASE)
from repro.machine.stack import ThreadStack
from repro.machine.threads import Scheduler, SimThread
from repro.machine.tls import TlsRegistry
from repro.obs.metrics import get_registry
from repro.util.rng import RngHub
from repro.vex.client_requests import ClientRequestRouter
from repro.vex.events import FreeEvent
from repro.vex.instrument import Instrumentation
from repro.vex.replacement import ReplacementRegistry
from repro.vex.tool import Tool


@dataclass
class ThreadContext:
    """Per-simulated-thread guest execution state."""

    thread_id: int
    stack: ThreadStack
    symbols: List[Symbol] = field(default_factory=list)      # shadow call stack
    lines: List[int] = field(default_factory=list)           # current line per frame

    @property
    def symbol(self) -> Symbol:
        if not self.symbols:
            raise MachineError(f"thread {self.thread_id} has no active symbol")
        return self.symbols[-1]

    @property
    def location(self) -> Optional[SourceLocation]:
        if not self.symbols:
            return None
        return self.symbols[-1].location(self.lines[-1])

    def call_stack(self) -> Tuple[SourceLocation, ...]:
        return tuple(s.location(ln) for s, ln in zip(self.symbols, self.lines))


class Machine:
    """One simulated process run."""

    def __init__(self, *, seed: int = 0, heap_size: int = DEFAULT_HEAP_SIZE,
                 stack_size: int = DEFAULT_STACK_SIZE,
                 cost_params: Optional[CostParams] = None) -> None:
        self.rng = RngHub(seed)
        self.space = AddressSpace()
        self.debug = DebugInfo()
        self.replacements = ReplacementRegistry()
        self.client_requests = ClientRequestRouter()
        self.scheduler = Scheduler(self.rng)
        self.stack_size = stack_size

        self.globals_region = self.space.map_region(Region(
            name="globals", base=GLOBALS_BASE, size=1 << 24,
            kind=RegionKind.GLOBALS))
        self._globals_cursor = GLOBALS_BASE
        self._global_vars: Dict[str, Tuple[int, int]] = {}

        heap_region = self.space.map_region(Region(
            name="heap", base=HEAP_BASE, size=heap_size, kind=RegionKind.HEAP))
        self.allocator = Allocator(self.space, heap_region)
        self.allocator.replacements = self.replacements
        self.allocator.on_alloc = self._notify_alloc
        self.allocator.on_free = self._notify_free
        self.fast_arena = FastArena(self.allocator)

        self.tls = TlsRegistry(self.space)

        #: the one analysis tool (:meth:`add_tool`), if any
        self.tool: Optional[Tool] = None
        self.cost: CostModel = CostModel(cost_params)
        self.instrumentation = Instrumentation(self.space, self.cost)
        # phases timed while this machine runs report its virtual clock;
        # the process-wide clocks hold the cost model, never the machine,
        # so a finished run is not kept alive until the next one starts
        self.metrics = get_registry()
        from repro.machine.cost import OPS_PER_SECOND
        cost = self.cost
        self.metrics.set_vclock(lambda: cost.vtime_ops,
                                ops_per_second=OPS_PER_SECOND)
        from repro.obs.tracer import get_tracer
        tracer = get_tracer()
        if tracer.enabled:
            # timeline timestamps follow this machine's virtual clock too
            tracer.set_vclock(lambda: cost.vtime_ops,
                              ops_per_second=OPS_PER_SECOND)
        from repro.obs.prof import get_profiler
        prof = get_profiler()
        if prof.enabled:
            # mirror every cost-model charge into the attribution profiler;
            # frames come from this machine's shadow call stacks
            self.cost._prof = prof

            def _shadow_frame(tid: int, _prof=prof) -> Optional[str]:
                ctx = self._contexts.get(tid)
                if ctx is None or not ctx.symbols:
                    return None
                return _prof.join_frames(
                    tuple(sym.name for sym in ctx.symbols))

            prof.bind_frame_provider(_shadow_frame)

        self._contexts: Dict[int, ThreadContext] = {}
        self._next_stack_base = STACKS_BASE
        self._finished = False

    # -- tool management ------------------------------------------------------

    def add_tool(self, tool: Tool) -> None:
        """Attach the run's analysis tool (before :meth:`run`).  Like a
        Valgrind process, a machine carries at most one tool, and it
        defines the run's cost behaviour."""
        if self.tool is not None:
            raise MachineError(f"machine already carries tool "
                               f"{self.tool.name!r}; cannot add "
                               f"{tool.name!r}")
        self.tool = self.instrumentation.tool = tool
        self.cost.tool_cost = tool.cost
        self.cost.clock.serialize = tool.cost.serialize
        tool.attach(self)

    # -- threads ------------------------------------------------------------------

    def new_thread(self, fn: Callable[[], object], name: str = "") -> SimThread:
        """Spawn a simulated thread with its own stack and TLS."""
        t = self.scheduler.spawn(fn, name)
        stack_region = self.space.map_region(Region(
            name=f"stack.t{t.id}", base=self._next_stack_base,
            size=self.stack_size, kind=RegionKind.STACK, owner_thread=t.id))
        self._next_stack_base += self.stack_size + (1 << 16)   # guard gap
        self.tls.register_thread(t.id)
        t.context = self._contexts[t.id] = ThreadContext(
            thread_id=t.id, stack=ThreadStack(self.space, stack_region, t.id))
        return t

    def context(self, thread_id: Optional[int] = None) -> ThreadContext:
        """``thread_id``'s guest state; the running thread's by default."""
        if thread_id is None:
            return self.scheduler.current().context
        return self._contexts[thread_id]

    # -- globals -------------------------------------------------------------------

    def global_var(self, name: str, size: int) -> int:
        """Address of global variable ``name``, allocating on first use."""
        entry = self._global_vars.get(name)
        if entry is None:
            addr = self._globals_cursor
            self._globals_cursor += (size + 15) & ~15
            if self._globals_cursor > self.globals_region.end:
                raise MachineError("globals region exhausted")
            entry = (addr, size)
            self._global_vars[name] = entry
        return entry[0]

    @property
    def globals_bytes(self) -> int:
        return self._globals_cursor - GLOBALS_BASE

    # -- allocator events --------------------------------------------------------------

    def _notify_alloc(self, block) -> None:
        self.cost.charge_alloc(self.scheduler.maybe_current())

    def _notify_free(self, block, retained: bool) -> None:
        thread = self.scheduler.maybe_current()
        self.cost.charge_alloc(thread)
        if self.tool is not None:
            self.tool.on_free(FreeEvent(
                addr=block.addr, size=block.size,
                thread_id=getattr(thread, "id", -1), seq=block.seq,
                retained=retained))

    # -- run -------------------------------------------------------------------------

    def run(self, entry: Callable[[], object]) -> object:
        """Execute ``entry`` on simulated thread 0 and drive all threads."""
        if self._finished:
            raise MachineError("Machine.run is single-shot")
        result_box: list = [None]

        def main() -> None:
            result_box[0] = entry()

        self.new_thread(main, name="main")
        try:
            with self.metrics.phase("record"):
                self.scheduler.run()
        finally:
            self._finished = True
        return result_box[0]

    # -- accounting --------------------------------------------------------------------

    def memory_meter(self) -> MemoryMeter:
        """Assemble the end-of-run footprint breakdown."""
        stack_bytes = sum(ctx.stack.peak_bytes
                          for ctx in self._contexts.values())
        from repro.machine.cost import PER_THREAD_RSS_BYTES
        meter = MemoryMeter(
            heap_high_water=self.allocator.high_water,
            retained_bytes=self.allocator.retained_bytes,
            stack_bytes=stack_bytes,
            globals_bytes=self.globals_bytes,
            tls_bytes=self.tls.bytes_mapped,
            thread_bytes=max(0, self.scheduler.peak_live - 1)
            * PER_THREAD_RSS_BYTES,
        )
        if self.tool is not None:
            meter.tool_bytes = self.tool.memory_bytes(meter.app_bytes)
        return meter
