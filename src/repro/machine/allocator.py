"""Heap allocator with first-fit recycling — and the hooks to defeat it.

Two properties matter for the paper:

1. **Recycling** (Section IV-B): ``free`` returns a block to a free list and a
   later ``malloc`` of a compatible size *reuses the same address*.  Two
   independent tasks that each ``malloc``/``write``/``free`` can therefore
   touch the same bytes, which a naive determinacy-race analysis flags.
2. **Function replacement** (Section III-C / IV-B): Valgrind tools can wrap
   the allocator.  Taskgrind turns ``free`` into a no-op so distinct
   allocations never alias, and records an allocation-site stack trace per
   block for error reports.  The replacement registry lives in
   :mod:`repro.vex.replacement`; this allocator consults it on every call.

The paper's future-work caveat — library-internal allocators such as LLVM's
``__kmp_fast_allocate`` recycle *despite* the wrapping — is reproduced by
:class:`FastArena`, the simulated OpenMP runtime's private pool, which this
module also provides and which ignores replacements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import DoubleFree, OutOfMemory
from repro.faults.inject import get_injector
from repro.machine.memory import AddressSpace, Region
from repro.obs.tracer import get_tracer

_TRACER = get_tracer()
_FAULTS = get_injector()

ALIGNMENT = 16


def _align(n: int) -> int:
    return (n + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


@dataclass
class AllocationBlock:
    """Metadata of one heap allocation (live, freed, or retained)."""

    addr: int
    size: int                                 # aligned size
    seq: int                                  # allocation order, block id
    req_size: int = 0                         # size the guest asked for
    alloc_site: Optional[object] = None       # SourceLocation of the malloc
    alloc_stack: Tuple[object, ...] = ()      # shadow call stack at malloc
    alloc_thread: int = -1
    freed: bool = False                       # logically freed by the guest
    retained: bool = False                    # freed but kept (free-as-noop)

    @property
    def end(self) -> int:
        return self.addr + self.size


class Allocator:
    """First-fit bump+free-list allocator over the heap region.

    * ``malloc`` prefers the free list (exact/first fit, splitting), falling
      back to bumping the arena top — so recycling happens naturally and
      deterministically.
    * ``free`` consults the replacement registry first: a tool that replaced
      ``free`` with a no-op causes the block to be *retained* (address never
      reused, bytes still counted in the footprint — the paper's 6x memory
      overhead has this as one mechanism).
    """

    def __init__(self, space: AddressSpace, region: Region) -> None:
        self.space = space
        self.region = region
        self._top = region.base
        self._free: List[Tuple[int, int]] = []      # (addr, size), sorted by addr
        self.blocks: Dict[int, AllocationBlock] = {}  # live blocks by addr
        self.all_blocks: List[AllocationBlock] = []   # every block ever allocated
        self._seq = 0
        # statistics
        self.live_bytes = 0
        self.retained_bytes = 0
        self.high_water = 0
        self.total_allocs = 0
        self.total_frees = 0
        self.recycled_allocs = 0
        # wired by the Machine
        self.replacements = None                      # vex.replacement registry
        self.on_alloc = None                          # callback(block)
        self.on_free = None                           # callback(block, retained)

    # -- allocation ---------------------------------------------------------

    def malloc(self, size: int, *, site: Optional[object] = None,
               stack: Tuple[object, ...] = (), thread: int = -1) -> AllocationBlock:
        """Allocate ``size`` bytes; returns the block metadata."""
        if size <= 0:
            raise ValueError(f"malloc of non-positive size {size}")
        if _FAULTS.plan is not None:
            _FAULTS.on_alloc()            # may raise an injected OutOfMemory
        want = _align(size)
        addr = self._take_from_free_list(want)
        recycled = addr is not None
        if addr is None:
            addr = self._top
            if addr + want > self.region.end:
                raise OutOfMemory(
                    f"heap arena exhausted ({self._top - self.region.base} used)")
            self._top += want
        block = AllocationBlock(addr=addr, size=want, seq=self._seq,
                                req_size=size, alloc_site=site,
                                alloc_stack=tuple(stack),
                                alloc_thread=thread)
        self._seq += 1
        self.blocks[addr] = block
        self.all_blocks.append(block)
        self.total_allocs += 1
        if recycled:
            self.recycled_allocs += 1
        self.live_bytes += want
        self.high_water = max(self.high_water, self.footprint)
        if _TRACER.enabled:
            _TRACER.instant("heap.malloc", thread, cat="heap",
                            args={"addr": addr, "size": size,
                                  "recycled": recycled})
        if self.on_alloc is not None:
            self.on_alloc(block)
        return block

    def _take_from_free_list(self, want: int) -> Optional[int]:
        for i, (addr, size) in enumerate(self._free):
            if size >= want:
                if size == want:
                    self._free.pop(i)
                else:
                    self._free[i] = (addr + want, size - want)
                return addr
        return None

    # -- deallocation ------------------------------------------------------------

    def free(self, addr: int) -> None:
        """Free the block at ``addr`` (honouring tool replacements)."""
        block = self.blocks.get(addr)
        if block is None or block.freed:
            raise DoubleFree(f"free of non-live address {addr:#x}")
        if self.replacements is not None and self.replacements.is_replaced("free"):
            # Tool-provided free: Taskgrind's no-op.  The block is logically
            # freed (guest must not touch it again per C semantics, though
            # nothing enforces that here, as in the real tool) but the address
            # is never recycled and the bytes stay in the footprint.
            block.freed = True
            block.retained = True
            del self.blocks[addr]
            self.retained_bytes += block.size
            self.live_bytes -= block.size
            self.total_frees += 1
            if _TRACER.enabled:
                # the paper's IV-B no-op free: block retained, never recycled
                _TRACER.instant("heap.free", block.alloc_thread, cat="heap",
                                args={"addr": addr, "size": block.size,
                                      "retained": True})
            if self.on_free is not None:
                self.on_free(block, True)
            return
        block.freed = True
        del self.blocks[addr]
        self.live_bytes -= block.size
        self.total_frees += 1
        self.space.clear_range(block.addr, block.end)
        self._release(block.addr, block.size)
        if _TRACER.enabled:
            _TRACER.instant("heap.free", block.alloc_thread, cat="heap",
                            args={"addr": addr, "size": block.size,
                                  "retained": False})
        if self.on_free is not None:
            self.on_free(block, False)

    def _release(self, addr: int, size: int) -> None:
        """Insert ``[addr, addr+size)`` into the free list, coalescing."""
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (addr, size))
        # coalesce with right neighbour
        if lo + 1 < len(self._free):
            a, s = self._free[lo]
            na, ns = self._free[lo + 1]
            if a + s == na:
                self._free[lo:lo + 2] = [(a, s + ns)]
        # coalesce with left neighbour
        if lo > 0:
            pa, ps = self._free[lo - 1]
            a, s = self._free[lo]
            if pa + ps == a:
                self._free[lo - 1:lo + 1] = [(pa, ps + s)]

    # -- queries --------------------------------------------------------------

    def block_at(self, addr: int, include_retained: bool = True) -> Optional[AllocationBlock]:
        """The block whose range covers ``addr`` (live, or retained if asked)."""
        best: Optional[AllocationBlock] = None
        for block in self.blocks.values():
            if block.addr <= addr < block.end:
                return block
        if include_retained:
            # retained blocks were removed from `blocks`; scan history newest-first
            for block in reversed(self.all_blocks):
                if block.retained and block.addr <= addr < block.end:
                    return block
        return best

    def block_history_at(self, addr: int) -> List[AllocationBlock]:
        """Every block (any epoch) whose range covered ``addr``, oldest first."""
        return [b for b in self.all_blocks if b.addr <= addr < b.end]

    @property
    def footprint(self) -> int:
        """Bytes currently held from the OS's perspective: live + retained."""
        return self.live_bytes + self.retained_bytes


class FastArena:
    """A library-internal pool allocator that recycles regardless of tools.

    Models LLVM's ``__kmp_fast_allocate``: the simulated OpenMP runtime
    allocates task descriptors from this pool.  Because it is *not* routed
    through the replaced ``free``, Taskgrind's no-op-free workaround does not
    apply — the future-work limitation of the paper's Section IV-B, and the
    mechanism behind the multi-thread TMB false positives.
    """

    def __init__(self, allocator: Allocator, *, chunk: int = 256) -> None:
        self._allocator = allocator
        self.chunk = _align(chunk)
        self._free: List[int] = []
        self.total_allocs = 0
        self.recycled_allocs = 0
        #: every chunk base this arena ever carved (ROMP's runtime awareness)
        self.owned_blocks: List[int] = []

    def alloc(self, size: int, *, site: Optional[object] = None,
              thread: int = -1) -> int:
        """Allocate one fixed-size slot; reuses returned slots LIFO."""
        if size > self.chunk:
            raise ValueError(f"FastArena chunk {self.chunk} < requested {size}")
        self.total_allocs += 1
        if self._free:
            self.recycled_allocs += 1
            return self._free.pop()
        block = self._allocator.malloc(self.chunk, site=site, thread=thread)
        self.owned_blocks.append(block.addr)
        return block.addr

    def release(self, addr: int) -> None:
        """Return a slot to the pool (never to the real allocator)."""
        self._free.append(addr)
