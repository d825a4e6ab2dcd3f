"""ELF-style thread-local storage: TCB + DTV per simulated thread.

Reproduces the paper's Section IV-C machinery.  Each simulated thread owns a
Thread Control Block (TCB) and a Dynamic Thread Vector (DTV): a generation
counter plus a vector of per-module TLS blocks.  ``_Thread_local`` variables
are assigned a (module, offset) pair once, and resolve per-thread to
``dtv[module].base + offset`` — so two tasks running on the *same* thread see
the same address (the false-positive source) while the same code on two
different threads touches disjoint ranges.

Taskgrind's suppression records a :class:`TlsSnapshot` (TCB id + DTV content +
generation) when a segment completes; a conflict whose both sides executed on
the same thread with the same DTV is discarded.  The snapshot also exposes the
paper's stated *limitation*: a TLS block allocated and freed within a segment
never appears in the end-of-segment snapshot, so such conflicts survive
suppression (tested in ``tests/core/test_suppress.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.machine.memory import (AddressSpace, Region, RegionKind,
                                  DEFAULT_TLS_BLOCK_SIZE, TLS_BASE)


@dataclass(frozen=True)
class TlsSnapshot:
    """What Taskgrind attaches to a completed segment (TCB + DTV state)."""

    thread_id: int
    tcb: int
    generation: int
    dtv: Tuple[Tuple[int, int, int], ...]    # (module, base, size) per entry

    def covers(self, addr: int, size: int = 1) -> bool:
        """True when ``[addr, addr+size)`` lies in one of the recorded blocks."""
        return any(base <= addr and addr + size <= base + bsz
                   for _mod, base, bsz in self.dtv)


class _ThreadTls:
    """Per-thread TCB + DTV.

    Every change to ``blocks`` after registration bumps ``generation``, so
    one snapshot serves every segment that ends in the same generation.
    """

    def __init__(self, thread_id: int, tcb: int) -> None:
        self.thread_id = thread_id
        self.tcb = tcb
        self.generation = 1
        self.blocks: Dict[int, Tuple[int, int]] = {}   # module -> (base, size)
        self._snapshot: Optional[TlsSnapshot] = None

    def snapshot(self) -> TlsSnapshot:
        snap = self._snapshot
        if snap is None or snap.generation != self.generation:
            dtv = tuple(sorted((mod, base, size)
                               for mod, (base, size) in self.blocks.items()))
            snap = self._snapshot = TlsSnapshot(self.thread_id, self.tcb,
                                                self.generation, dtv)
        return snap


class TlsRegistry:
    """Allocates static/dynamic TLS blocks and resolves TLS variables."""

    def __init__(self, space: AddressSpace) -> None:
        self.space = space
        self._next_base = TLS_BASE
        self._threads: Dict[int, _ThreadTls] = {}
        self._static_vars: Dict[str, Tuple[int, int, int]] = {}  # name->(mod,off,size)
        self._static_cursor = 0
        self._next_module = 2          # module 1 = static TLS of the executable
        self.bytes_mapped = 0
        #: recycled dynamic-TLS carve slots: (size -> [base, ...]).  Dynamic
        #: TLS blocks come from the allocator in a real process, so reuse is
        #: the realistic behaviour — and what makes the paper's DTV-churn
        #: false positive reproducible.
        self._free_blocks: Dict[int, List[int]] = {}

    # -- thread lifecycle ----------------------------------------------------

    def register_thread(self, thread_id: int) -> None:
        """Create the TCB and static TLS block for a new simulated thread."""
        tcb = self._carve(64, f"tcb.t{thread_id}", thread_id)
        tls = _ThreadTls(thread_id, tcb)
        static = self._carve(DEFAULT_TLS_BLOCK_SIZE, f"tls.static.t{thread_id}",
                             thread_id)
        tls.blocks[1] = (static, DEFAULT_TLS_BLOCK_SIZE)
        self._threads[thread_id] = tls

    def _carve(self, size: int, name: str, thread_id: int) -> int:
        base = self._next_base
        self._next_base += (size + 0xFFF) & ~0xFFF      # page-align regions
        self.space.map_region(Region(name=name, base=base, size=size,
                                     kind=RegionKind.TLS,
                                     owner_thread=thread_id))
        self.bytes_mapped += size
        return base

    # -- static TLS variables (``_Thread_local``) ---------------------------------

    def declare_static_var(self, name: str, size: int) -> None:
        """Assign a (module=1, offset) slot to a ``_Thread_local`` variable."""
        if name in self._static_vars:
            return
        off = self._static_cursor
        self._static_cursor += (size + 15) & ~15
        if self._static_cursor > DEFAULT_TLS_BLOCK_SIZE:
            raise ValueError("static TLS image exhausted")
        self._static_vars[name] = (1, off, size)

    def resolve(self, name: str, thread_id: int) -> int:
        """Address of TLS variable ``name`` on ``thread_id``."""
        mod, off, _size = self._static_vars[name]
        base, _bsz = self._threads[thread_id].blocks[mod]
        return base + off

    # -- dynamic TLS (dlopen-style modules; exercises the DTV-gen limitation) -----

    def open_module(self, thread_id: int, size: int) -> int:
        """Allocate a dynamic TLS block for a fresh module on one thread.

        Bumps the DTV generation — the signal the paper says Taskgrind could
        use to *warn* about (but not suppress) intra-segment DTV churn.
        """
        tls = self._threads[thread_id]
        module = self._next_module
        self._next_module += 1
        free = self._free_blocks.get(size)
        if free:
            base = free.pop()
            self.space.map_region(Region(
                name=f"tls.dyn.m{module}.t{thread_id}", base=base, size=size,
                kind=RegionKind.TLS, owner_thread=thread_id))
            self.bytes_mapped += size
        else:
            base = self._carve(size, f"tls.dyn.m{module}.t{thread_id}",
                               thread_id)
        tls.blocks[module] = (base, size)
        tls.generation += 1
        return module

    def close_module(self, thread_id: int, module: int) -> None:
        tls = self._threads[thread_id]
        base, size = tls.blocks.pop(module)
        tls.generation += 1
        region = self.space.region_at(base)
        if region is not None:
            self.space.unmap_region(region)
            self.bytes_mapped -= size
        self._free_blocks.setdefault(size, []).append(base)

    def module_base(self, thread_id: int, module: int) -> int:
        return self._threads[thread_id].blocks[module][0]

    # -- snapshots --------------------------------------------------------------

    def snapshot(self, thread_id: int) -> TlsSnapshot:
        return self._threads[thread_id].snapshot()

    def generation(self, thread_id: int) -> int:
        return self._threads[thread_id].generation
