"""VEX-style dynamic instrumentation layer (the Valgrind-core analogue).

In real Valgrind the core JIT-recompiles guest code to VEX IR and lets the
tool plugin inject instrumentation around every load/store.  Here the
"recompilation" is structural: every guest access performed through
:class:`repro.machine.program.GuestContext` is funneled through
:class:`~repro.vex.instrument.Instrumentation`, which dispatches to the
machine's one tool — with the tool's *visibility* honoured (a compile-time
tool does not observe accesses in symbols that were not compiled with
instrumentation; a DBI tool observes everything).

The other two Valgrind facilities the paper leans on are here too:

* :mod:`repro.vex.client_requests` — the client-request channel through which
  the injected OMPT shim forwards runtime state to the tool (Section III-A);
* :mod:`repro.vex.replacement` — function replacement, used to wrap the
  allocator (stack traces on allocation, ``free`` as a no-op; Sections III-C
  and IV-B).
"""

from repro.vex.events import FreeEvent
from repro.vex.instrument import Instrumentation
from repro.vex.client_requests import ClientRequestRouter
from repro.vex.replacement import ReplacementRegistry
from repro.vex.tool import Tool
from repro.vex.ir import SuperBlock
from repro.vex.translate import Assembler, GuestVM

__all__ = [
    "FreeEvent", "Instrumentation", "ClientRequestRouter",
    "ReplacementRegistry", "Tool", "SuperBlock", "Assembler", "GuestVM",
]
