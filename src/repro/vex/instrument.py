"""The instrumentation hub: every guest access flows through here.

This is the reproduction's stand-in for the VEX JIT loop: the
:class:`~repro.machine.program.GuestContext` calls :meth:`Instrumentation.access`
for each load/store, and the hub

1. validates the mapping (a bad guest access is a simulated SIGSEGV),
2. hands the access to the machine's one tool when the tool's visibility
   covers it (plus a one-time translation charge per symbol for DBI tools),
3. charges simulated time: base cost, times the tool's per-access factor
   when the tool observed the access.

Symbol filtering for Taskgrind's *ignore-list*/*instrument-list*
(Section IV-A) is deliberately **not** done here: it is tool policy, applied
inside :class:`repro.core.tool.TaskgrindTool`, exactly as in the real tool
where the core hands the tool every IR block and the plugin decides what to
instrument.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.machine.cost import CostModel
from repro.machine.debuginfo import SourceLocation, Symbol
from repro.machine.memory import AddressSpace
from repro.vex.tool import Tool


class Instrumentation:
    """Access funnel + dispatch to the one attached tool."""

    def __init__(self, space: AddressSpace, cost: CostModel) -> None:
        self.space = space
        self.cost = cost
        #: the attached tool (set by :meth:`Machine.add_tool`), if any
        self.tool: Optional[Tool] = None
        # hot-path counts, published into the stats doc at snapshot time
        self.access_count = 0
        self.dispatched = 0         # accesses the tool observed
        self.unobserved = 0         # accesses the tool did not see
        #: per thread id, the symbol names whose translation charge the
        #: cost model has been asked for: it charges only the first such
        #: call per symbol (per symbol and thread for a tool that does not
        #: serialize the client), so every later one is skipped.  Kept on
        #: the machine's hub, so the next run charges anew.
        self._translated: Dict[int, Set[str]] = {}

    # -- the hot path -------------------------------------------------------

    def access(self, addr: int, size: int, is_write: bool, *,
               thread, symbol: Symbol, loc: Optional[SourceLocation],
               atomic: bool = False, site=None) -> None:
        """Record one guest access of ``size`` bytes at ``addr``.

        ``site`` is the :class:`~repro.vex.elide.StaticSite` token attached
        to statically-elided access handles; it rides through to the tool,
        which drops the access before recording (the declaration already
        proved the runtime suppression verdict).

        Sync-only recording (``TaskgrindOptions.record_mode="sync"``, the
        two-phase first pass) changes nothing here on purpose: the tool is
        still dispatched and still *observes* every access, so the charge
        below — and with it the virtual clock and the schedule — is
        bit-identical to a full-recording run.  Only the tool-side work
        behind the dispatch collapses to a counter bump.
        """
        self.space.check_mapped(addr, size, "write" if is_write else "read")
        self.access_count += 1
        tool = self.tool
        observed = tool is not None and tool.sees(symbol)
        if observed:
            tid = getattr(thread, "id", -1)
            if tool.is_dbi:
                translated = self._translated.get(tid)
                if translated is None:
                    translated = self._translated[tid] = set()
                if symbol.name not in translated:
                    translated.add(symbol.name)
                    self.cost.charge_translation(thread, symbol.name)
            tool.on_access(tid, addr, size, is_write, symbol, loc, site,
                           atomic)
            self.dispatched += 1
        else:
            self.unobserved += 1
        self.cost.charge_access(thread, size, observed, atomic)

    def stats(self) -> dict:
        """Hub-level dispatch counts for the stats document."""
        return {"accesses": self.access_count,
                "dispatched": self.dispatched,
                "unobserved": self.unobserved}
