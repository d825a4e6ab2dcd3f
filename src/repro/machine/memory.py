"""Flat simulated 64-bit address space with named regions.

The address space only tracks *mappings* and *scalar values*; bulk data (the
LULESH field arrays) lives in numpy arrays owned by the workloads, with the
corresponding byte ranges merely registered here.  Race analysis needs the
(address, size, kind) stream, not the payloads — the same observation that
lets the paper's interval trees compact dense accesses lets us avoid storing
them at all.

Region layout (chosen to echo a classic Linux x86-64 process):

===============  ==================  =========================================
region           base                contents
===============  ==================  =========================================
code             ``0x0000_0040_0000``  one synthetic "instruction" slot per symbol
globals          ``0x0000_0060_0000``  global/static variables
heap             ``0x0000_1000_0000``  allocator arena (grows upward)
tls              ``0x7e00_0000_0000``  per-thread static TLS blocks + DTV entries
stacks           ``0x7f00_0000_0000``  per-thread stacks (grow downward)
===============  ==================  =========================================
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SegmentationFault
from repro.util.intervals import IntervalSet

CODE_BASE = 0x0000_0040_0000
GLOBALS_BASE = 0x0000_0060_0000
HEAP_BASE = 0x0000_1000_0000
TLS_BASE = 0x7E00_0000_0000
STACKS_BASE = 0x7F00_0000_0000

DEFAULT_HEAP_SIZE = 1 << 34          # 16 GiB of simulated arena
DEFAULT_STACK_SIZE = 1 << 21         # 2 MiB per simulated thread
DEFAULT_TLS_BLOCK_SIZE = 1 << 16     # 64 KiB static TLS per thread


class RegionKind(enum.Enum):
    """What a mapped region holds; analyses branch on this."""

    CODE = "code"
    GLOBALS = "globals"
    HEAP = "heap"
    STACK = "stack"
    TLS = "tls"


@dataclass
class Region:
    """A contiguous mapped region of the simulated address space."""

    name: str
    base: int
    size: int
    kind: RegionKind
    owner_thread: Optional[int] = None   # stacks / TLS blocks are per-thread
    meta: dict = field(default_factory=dict)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Region({self.name!r}, [{self.base:#x}, {self.end:#x}), "
                f"{self.kind.value})")


class AddressSpace:
    """Mapped-region bookkeeping plus a scalar value store.

    ``load``/``store`` keep actual Python values for *scalar* guest variables
    (so microbenchmarks can branch on data); bulk ranges are mapped but
    valueless.  Access *events* are not emitted here — that is the job of
    :class:`repro.vex.instrument.Instrumentation`, which every
    :class:`~repro.machine.program.GuestContext` access goes through first.
    """

    def __init__(self) -> None:
        self._regions: List[Region] = []          # sorted by base
        self._bases: List[int] = []               # their bases, for bisect
        self._mapped = IntervalSet()
        self._values: Dict[int, Tuple[int, object]] = {}   # addr -> (size, value)

    # -- mapping ------------------------------------------------------------

    def map_region(self, region: Region) -> Region:
        """Register a region; overlap with an existing mapping is a bug."""
        if self._mapped.overlaps_range(region.base, region.end):
            raise ValueError(f"mapping overlap: {region!r}")
        self._mapped.add(region.base, region.end)
        i = bisect_left(self._bases, region.base)
        self._regions.insert(i, region)
        self._bases.insert(i, region.base)
        return region

    def unmap_region(self, region: Region) -> None:
        i = self._regions.index(region)
        del self._regions[i]
        del self._bases[i]
        self._mapped.remove(region.base, region.end)
        for addr in [a for a in self._values if region.contains(a)]:
            del self._values[addr]

    def region_at(self, addr: int) -> Optional[Region]:
        """The region containing ``addr``, or ``None``."""
        i = bisect_right(self._bases, addr)
        if i == 0:
            return None
        r = self._regions[i - 1]
        return r if addr < r.base + r.size else None

    def check_mapped(self, addr: int, size: int, kind: str) -> Region:
        """Raise :class:`SegmentationFault` unless the region holding byte
        ``addr`` also holds ``[addr, addr+size)``; returns that region."""
        i = bisect_right(self._bases, addr)
        if i:
            r = self._regions[i - 1]
            end = r.base + r.size
            if addr < end and addr + size <= end:
                return r
        raise SegmentationFault(addr, size, kind)

    @property
    def regions(self) -> List[Region]:
        return list(self._regions)

    # -- scalar value store ---------------------------------------------------

    def store(self, addr: int, size: int, value: object) -> None:
        """Store a scalar ``value`` at ``addr`` (mapping must exist)."""
        self.check_mapped(addr, size, "write")
        self._values[addr] = (size, value)

    def load(self, addr: int, size: int, default: object = 0) -> object:
        """Load the scalar previously stored at ``addr`` (0 if never written)."""
        self.check_mapped(addr, size, "read")
        entry = self._values.get(addr)
        return entry[1] if entry is not None else default

    def clear_range(self, lo: int, hi: int) -> None:
        """Drop stored scalars in ``[lo, hi)`` (used on frame pop / free)."""
        if not self._values:
            return
        for addr in [a for a in self._values if lo <= a < hi]:
            del self._values[addr]

    # -- introspection ----------------------------------------------------------

    def describe(self, addr: int) -> str:
        """A human-readable description of what ``addr`` points into."""
        r = self.region_at(addr)
        if r is None:
            return f"{addr:#x} (unmapped)"
        off = addr - r.base
        who = f" of thread {r.owner_thread}" if r.owner_thread is not None else ""
        return f"{addr:#x} ({r.kind.value} '{r.name}'{who} +{off:#x})"
