"""Guest programming API: how benchmark programs touch simulated memory.

A guest program is a Python callable receiving a :class:`GuestContext`.  All
memory traffic goes through the context so it funnels through the
instrumentation hub — the property real DBI guarantees and compile-time
instrumentation does not.  The context also maintains debug information
(shadow call stack, current source line) so reports can print
``task.1.c:8``-style locations.

Typical benchmark shape::

    def body(ctx: GuestContext) -> None:
        with ctx.function("main", file="task.c", line=1):
            x = ctx.malloc(8, line=3)
            ctx.line(8); x.write(0, 4)

:class:`Buffer` is a thin handle over an address range; element accesses emit
events and may carry per-access source lines.  Bulk ranges (LULESH fields) use
:meth:`Buffer.write_range` which emits one dense interval event, matching the
compaction of the paper's interval trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.errors import MachineError
from repro.machine.debuginfo import SourceLocation, Symbol
from repro.machine.machine import Machine, ThreadContext
from repro.machine.stack import StackFrame


@dataclass(frozen=True)
class GuestProgram:
    """A benchmark program: entry point + metadata the runner needs."""

    name: str
    entry: Callable[["GuestContext"], object]
    #: OpenMP/Cilk construct tags used, e.g. {"task", "depend:inoutset"} —
    #: checked against each tool's compiler feature matrix ("ncs" rows).
    features: frozenset = frozenset()
    description: str = ""
    #: Main source file for reports.
    source_file: str = "main.c"


class Buffer:
    """A handle on ``[addr, addr+size)`` of simulated memory."""

    __slots__ = ("ctx", "addr", "size", "name", "elem", "site")

    def __init__(self, ctx: "GuestContext", addr: int, size: int,
                 name: str = "", elem: int = 4, site=None) -> None:
        self.ctx = ctx
        self.addr = addr
        self.size = size
        self.name = name
        self.elem = elem           # element width for index-based access
        self.site = site           # StaticSite token when statically elided

    @property
    def end(self) -> int:
        return self.addr + self.size

    def index_addr(self, index: int) -> int:
        return self.addr + index * self.elem

    # -- element access (emits events; optionally stores scalar values) --------

    def write(self, index: int = 0, value: object = None, *,
              line: Optional[int] = None, atomic: bool = False) -> None:
        addr = self.index_addr(index)
        self.ctx.write_mem(addr, self.elem, line=line, atomic=atomic,
                           site=self.site)
        if value is not None:
            self.ctx.machine.space.store(addr, self.elem, value)

    def read(self, index: int = 0, *, line: Optional[int] = None,
             atomic: bool = False) -> object:
        addr = self.index_addr(index)
        self.ctx.read_mem(addr, self.elem, line=line, atomic=atomic,
                          site=self.site)
        return self.ctx.machine.space.load(addr, self.elem)

    # -- bulk interval access ----------------------------------------------------

    def write_range(self, lo_index: int, hi_index: int, *,
                    line: Optional[int] = None) -> None:
        """One dense write covering elements ``[lo_index, hi_index)``."""
        if hi_index <= lo_index:
            return
        self.ctx.write_mem(self.index_addr(lo_index),
                           (hi_index - lo_index) * self.elem, line=line,
                           site=self.site)

    def read_range(self, lo_index: int, hi_index: int, *,
                   line: Optional[int] = None) -> None:
        if hi_index <= lo_index:
            return
        self.ctx.read_mem(self.index_addr(lo_index),
                          (hi_index - lo_index) * self.elem, line=line,
                          site=self.site)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "buf"
        return f"Buffer({label} @ {self.addr:#x}+{self.size})"


class _Activation:
    """One ``with ctx.function(...)`` block: enter pushes the stack frame
    and the debug frame and charges the call, exit pops both, on the
    thread that entered."""

    __slots__ = ("_ctx", "_sym", "_line", "_tctx", "_frame")

    def __init__(self, ctx: "GuestContext", sym: Symbol, line: int) -> None:
        self._ctx = ctx
        self._sym = sym
        self._line = line

    def __enter__(self) -> StackFrame:
        ctx = self._ctx
        thread = ctx._sched.current()
        tctx = self._tctx = thread.context
        frame = self._frame = tctx.stack.push_frame(self._sym)
        tctx.symbols.append(self._sym)
        tctx.lines.append(self._line)
        ctx.machine.cost.charge_call(thread)
        return frame

    def __exit__(self, *exc) -> None:
        tctx = self._tctx
        tctx.lines.pop()
        tctx.symbols.pop()
        tctx.stack.pop_frame(self._frame)


class GuestContext:
    """The guest program's window on the simulated process."""

    def __init__(self, machine: Machine, *, source_file: str = "main.c",
                 nthreads: int = 1) -> None:
        self.machine = machine
        self._sched = machine.scheduler
        self.source_file = source_file
        self.nthreads = nthreads
        #: Extension point: runtimes (OpenMP env, Cilk env) hang themselves here.
        self.extensions: dict = {}

    # -- thread-side state --------------------------------------------------------

    def _tctx(self) -> ThreadContext:
        return self._sched.current().context

    @property
    def current_location(self) -> Optional[SourceLocation]:
        return self._tctx().location

    def line(self, n: int) -> None:
        """Set the current source line of the innermost frame."""
        tctx = self._tctx()
        if not tctx.lines:
            raise MachineError("line() outside any function")
        tctx.lines[-1] = n

    def call_stack(self) -> Tuple[SourceLocation, ...]:
        return self._tctx().call_stack()

    # -- functions ------------------------------------------------------------------

    def function(self, name: str, *, file: Optional[str] = None, line: int = 0,
                 instrumented: bool = True,
                 library: str = "a.out") -> _Activation:
        """Enter guest function ``name`` (``with ctx.function(...) as
        frame:``): push a stack frame + debug frame."""
        sym = self.machine.debug.intern(
            name, file=file or self.source_file, line=line,
            instrumented=instrumented, library=library)
        return _Activation(self, sym, line)

    # -- memory: variables ---------------------------------------------------------

    def _declare_site(self, name: str, klass: str) -> Optional[object]:
        """Hand a ``private=True`` declaration to the tool (tg_static_site).

        Returns the :class:`~repro.vex.elide.StaticSite` token iff some tool
        decided to elide the site; ``None`` (no subscriber, or elision
        gated off) keeps the normal recording path.
        """
        tctx = self._tctx()
        loc = tctx.location
        return self.machine.client_requests.request(
            "tg_static_site",
            (name, klass, tctx.symbol.name,
             loc.file if loc else "", loc.line if loc else 0))

    def malloc(self, size: int, *, name: str = "", elem: int = 4,
               line: Optional[int] = None, private: bool = False) -> Buffer:
        """Heap-allocate ``size`` bytes (records the allocation call stack).

        ``private=True`` asserts the allocation provably never escapes its
        creating scope (compiler-proved): its access site may be statically
        elided (class ``alloc`` of the elision lattice).
        """
        tctx = self._tctx()
        if line is not None:
            self.line(line)
        block = self.machine.allocator.malloc(
            size, site=tctx.location, stack=tctx.call_stack(),
            thread=tctx.thread_id)
        site = self._declare_site(name or "malloc", "alloc") if private \
            else None
        return Buffer(self, block.addr, size, name=name, elem=elem,
                      site=site)

    def free(self, buf: Buffer) -> None:
        self.machine.allocator.free(buf.addr)

    def global_var(self, name: str, size: int = 4, *, elem: int = 4) -> Buffer:
        """A global/static variable (one address program-wide)."""
        addr = self.machine.global_var(name, size)
        return Buffer(self, addr, size, name=name, elem=elem)

    def stack_var(self, name: str, size: int = 4, *, elem: int = 4,
                  private: bool = False) -> Buffer:
        """A local variable in the current frame (aliases across reuse!).

        ``private=True`` asserts the address provably never escapes the
        frame: the site may be statically elided (class ``stack``).
        """
        tctx = self._tctx()
        addr = tctx.stack.alloca(size, name=name)
        site = self._declare_site(name, "stack") if private else None
        return Buffer(self, addr, size, name=name, elem=elem, site=site)

    def tls_var(self, name: str, size: int = 4, *, elem: int = 4,
                private: bool = False) -> Buffer:
        """A ``_Thread_local`` variable resolved for the *current* thread.

        ``private=True`` asserts no cross-thread aliasing of the slot: the
        site may be statically elided (class ``tls``).
        """
        self.machine.tls.declare_static_var(name, size)
        addr = self.machine.tls.resolve(name, self._tctx().thread_id)
        site = self._declare_site(name, "tls") if private else None
        return Buffer(self, addr, size, name=name, elem=elem, site=site)

    # -- memory: raw access ------------------------------------------------------------

    def read_mem(self, addr: int, size: int, *, line: Optional[int] = None,
                 atomic: bool = False, site=None) -> None:
        if line is not None:
            self.line(line)
        thread = self._sched.current()
        tctx = thread.context
        self.machine.instrumentation.access(
            addr, size, False, thread=thread,
            symbol=tctx.symbol, loc=tctx.location, atomic=atomic, site=site)

    def write_mem(self, addr: int, size: int, *, line: Optional[int] = None,
                  atomic: bool = False, site=None) -> None:
        if line is not None:
            self.line(line)
        thread = self._sched.current()
        tctx = thread.context
        self.machine.instrumentation.access(
            addr, size, True, thread=thread,
            symbol=tctx.symbol, loc=tctx.location, atomic=atomic, site=site)

    # -- misc -------------------------------------------------------------------------

    def compute(self, flops: float) -> None:
        """Charge pure-compute simulated time (workload arithmetic)."""
        self.machine.cost.charge_compute(self._sched.current(), flops)

    def client_request(self, name: str, payload=None):
        return self.machine.client_requests.request(name, payload)
