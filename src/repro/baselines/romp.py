"""ROMP: dynamic binary instrumentation, OpenMP-only, access histories.

Modeled from Gu & Mellor-Crummey (SC'18) as characterized by the paper:

* **DBI scope** like Taskgrind (sees every access, ``is_dbi = True``) with
  deep OpenMP-runtime integration — it identifies runtime-owned memory (task
  descriptors) and firstprivate capture reads and excludes them;
* coarse **stack/TLS filtering**: conflicts on a stack or TLS range are
  dropped when every party executed on the owning thread (the precise
  frame-registration of Taskgrind is what Section IV-D contrasts against);
* **access histories**: per-range per-access records with no interval
  compaction — memory grows with the access *count*, the mechanism behind
  the 75 GB blow-up the paper reports on LULESH ``-s 64``;
* **poor error reporting** (Listing 5): raw addresses, no debug info;
* modeled crashes: the DRB127 ``segv`` (threadprivate + tasking) and the
  LULESH first-iteration crash, both reported as
  :class:`repro.errors.GuestCrash`.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.baselines.shadow import IntervalMap
from repro.baselines.tasksanitizer import _BuilderOmptShim, EPOCH_STRIDE
from repro.core.analysis import RaceCandidate, find_races
from repro.core.segments import SegmentBuilder, SegmentModelConfig
from repro.errors import GuestCrash
from repro.machine.cost import ToolCost
from repro.machine.memory import RegionKind
from repro.util.intervals import IntervalSet
from repro.vex.events import FreeEvent
from repro.vex.tool import Tool

#: bytes per access-history record (no compaction!)
HISTORY_RECORD_BYTES = 48

#: dynamic accesses per logical 8-byte cell: real kernels re-touch operands
#: many times per iteration and ROMP records *every* dynamic access, while
#: our interval events record each cell once (calibrated so the LULESH
#: ``-s 64`` first iteration lands near the paper's 75 GB)
RETOUCH_FACTOR = 80

#: crash when the history exceeds this many simulated bytes
DEFAULT_MEMORY_CAP = 75 << 30


class RompTool(Tool):
    """ROMP as a machine-level tool."""

    name = "romp"
    is_dbi = True
    cost = ToolCost(access_factor=1300.0, compute_factor=100.0,
                    translation_ops=400_000.0, serialize=False)

    SEGMENT_MODEL = SegmentModelConfig(
        honor_mutexinoutset=False,        # the DRB135 false positive
        honor_undeferred=False,           # the DRB122 false positive
        honor_deferrable_annotation=False,
    )

    #: symbols whose accesses ROMP's runtime integration reclassifies
    RUNTIME_AWARE_SYMBOLS: Set[str] = {".omp.copyin"}

    def __init__(self, *, memory_cap: int = DEFAULT_MEMORY_CAP,
                 crash_after_regions: Optional[int] = None) -> None:
        super().__init__()
        self.builder: Optional[SegmentBuilder] = None
        self._epochs: IntervalMap[int] = IntervalMap()
        self.memory_cap = memory_cap
        #: models the paper's LULESH observation: "the instrumented program
        #: crashed early during the first iteration" — crash after this many
        #: parallel regions complete (None = never)
        self.crash_after_regions = crash_after_regions
        self.regions_seen = 0
        self.history_records = 0
        self.reports: List[RaceCandidate] = []

    def _on_region_end(self) -> None:
        self.regions_seen += 1
        if (self.crash_after_regions is not None
                and self.regions_seen >= self.crash_after_regions):
            raise GuestCrash(self.name,
                             "segv in region teardown (dependent-task port)")

    # -- pre-run gates -------------------------------------------------------

    def compile_check(self, program) -> None:
        # ROMP instruments binaries, no compiler gate — but the paper records
        # a segv on DRB127 (threadprivate + tasking): model it as the
        # instrumented run crashing immediately.
        if "romp-segv" in getattr(program, "features", frozenset()):
            raise GuestCrash(self.name,
                             "segv instrumenting threadprivate tasking test")

    def attach(self, machine) -> None:
        super().attach(machine)
        self.builder = SegmentBuilder(machine, self.SEGMENT_MODEL)

    def make_ompt_shim(self) -> _BuilderOmptShim:
        # region-scoped dependence matching: orders the DRB173 uncle/nephew
        # pair (FN) but not the cross-nested-region DRB175 pair (TP)
        tool = self

        class _RompShim(_BuilderOmptShim):
            def on_parallel_end(self, region, task) -> None:
                super().on_parallel_end(region, task)
                tool._on_region_end()

        return _RompShim(self.builder, self.machine, dep_scope="region")

    # -- coloring + filtering -------------------------------------------------------

    def _virtualize(self, addr: int) -> int:
        epoch = self._epochs.get_point(addr) or 0
        return addr + epoch * EPOCH_STRIDE

    def on_free(self, event: FreeEvent) -> None:
        self._epochs.update(event.addr, event.addr + event.size,
                            lambda e: (e or 0) + 1)

    def _arena_lookup(self, addr: int) -> bool:
        """Task-descriptor memory (the runtime's fast arena)."""
        for base in self.machine.fast_arena.owned_blocks:
            if base <= addr < base + self.machine.fast_arena.chunk:
                return True
        return False

    def on_access(self, thread_id: int, addr: int, size: int,
                  is_write: bool, symbol, loc, site, atomic: bool) -> None:
        if symbol.name in self.RUNTIME_AWARE_SYMBOLS:
            return                      # capture reads modeled precisely
        if symbol.name.startswith("__kmp"):
            return                      # runtime internals: ROMP knows them
        if self._arena_lookup(addr):
            return                      # runtime-owned descriptors excluded
        self.history_records += max(1, size // 8) * RETOUCH_FACTOR
        if self.history_records * HISTORY_RECORD_BYTES > self.memory_cap:
            raise GuestCrash(self.name,
                             "access history exhausted memory "
                             f"({self.history_records} records)")
        self.builder.record_access(thread_id, self._virtualize(addr), size,
                                   is_write, loc)

    # -- analysis + coarse suppressions ----------------------------------------------

    def finalize(self) -> List[RaceCandidate]:
        candidates = find_races(self.builder.graph).candidates
        self.reports = [c for c in candidates if not self._suppressed(c)]
        return self.reports

    def _suppressed(self, cand: RaceCandidate) -> bool:
        """Coarse owner-thread stack/TLS filtering (vs Taskgrind's precise
        frame registration)."""
        surviving = IntervalSet()
        for piece in cand.ranges:
            real_lo = piece.lo % EPOCH_STRIDE
            region = self.machine.space.region_at(real_lo)
            if region is not None and region.kind in (RegionKind.STACK,
                                                      RegionKind.TLS):
                owner = region.owner_thread
                if cand.s1.thread_id == owner and cand.s2.thread_id == owner:
                    continue
            surviving.add(piece.lo, piece.hi)
        return not surviving

    def memory_bytes(self, app_bytes: int = 0) -> int:
        return (self.history_records * HISTORY_RECORD_BYTES
                + self.builder.graph.memory_bytes())
