"""Base class for analysis tools (Valgrind plugins *and* compile-time tools).

Every comparator in the paper's evaluation is modeled as a :class:`Tool`:

* DBI tools (``Taskgrind``, ``ROMP``) set ``is_dbi = True`` — they observe
  every access, including those in uninstrumented symbols.
* Compile-time tools (``Archer``/TSan, ``TaskSanitizer``) observe only
  accesses whose enclosing symbol has ``instrumented=True`` — the mechanism
  behind the paper's false-negative discussion.
* ``compile_check`` models the compiler front-end: TaskSanitizer's Clang 8
  rejects newer OpenMP constructs, producing the ``ncs`` cells of Table I.

The lifecycle mirrors a Valgrind tool: ``attach`` wires the tool into the
machine (client requests, replacements, OMPT); per-event callbacks fire during
the run; ``finalize`` runs post-mortem analysis and returns the list of race
reports the benchmark runner classifies against ground truth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.machine.cost import ToolCost
from repro.vex.events import FreeEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.machine import Machine


class Tool:
    """Lifecycle + observation interface for one analysis tool."""

    #: Human-readable tool name (used in harness tables).
    name: str = "nulgrind"
    #: True for dynamic *binary* instrumentation: sees every access.
    is_dbi: bool = False
    #: Simulated time/memory behaviour (see :class:`repro.machine.cost.ToolCost`).
    cost = ToolCost()

    def __init__(self) -> None:
        self.machine: Optional["Machine"] = None

    # -- compile-time gate ----------------------------------------------------

    def compile_check(self, program) -> None:
        """Raise :class:`repro.errors.NoCompilerSupport` on rejected constructs.

        ``program`` exposes ``required_features`` (a set of construct tags);
        the default accepts everything.
        """

    # -- lifecycle ---------------------------------------------------------------

    def attach(self, machine: "Machine") -> None:
        """Wire the tool into the machine before the guest starts."""
        self.machine = machine

    def finalize(self) -> List:
        """Post-execution analysis; returns the tool's race reports."""
        return []

    # -- visibility ---------------------------------------------------------------

    def sees(self, symbol) -> bool:
        """Whether this tool observes accesses in ``symbol`` (DBI vs
        compile-time scope)."""
        return self.is_dbi or symbol.instrumented

    # -- event callbacks --------------------------------------------------------

    def on_access(self, thread_id: int, addr: int, size: int,
                  is_write: bool, symbol, loc, site, atomic: bool) -> None:
        """Called for every access the tool *sees* (per :meth:`sees`).

        ``symbol`` is the enclosing guest function, ``loc`` the precise
        source location if debug info has one, ``site`` the static-elision
        token of declared private handles (see :mod:`repro.vex.elide`) and
        ``atomic`` whether an atomic construct issued the access.
        """

    def on_free(self, event: FreeEvent) -> None:
        """Heap deallocation."""

    def memory_bytes(self, app_bytes: int = 0) -> int:
        """Simulated bytes of tool metadata at end of run (for Table II).

        ``app_bytes`` is the application-side footprint (including the
        process image); tools whose overhead scales with it — TSan shadow
        maps everything the process touches — use it.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tool {self.name}>"


class NullTool(Tool):
    """The no-instrumentation baseline ("No tools" columns of Table II)."""

    name = "none"
    cost = ToolCost(access_factor=1.0, serialize=False)
