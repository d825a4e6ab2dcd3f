"""Tests for the address space and the recycling allocator."""

import pytest

from repro.errors import DoubleFree, OutOfMemory, SegmentationFault
from repro.machine.allocator import Allocator, FastArena
from repro.machine.memory import AddressSpace, Region, RegionKind, HEAP_BASE
from repro.vex.replacement import ReplacementRegistry


def make_heap(size=1 << 20):
    space = AddressSpace()
    region = space.map_region(Region("heap", HEAP_BASE, size, RegionKind.HEAP))
    return space, Allocator(space, region)


class TestAddressSpace:
    def test_region_lookup(self):
        space = AddressSpace()
        r = space.map_region(Region("g", 0x1000, 0x100, RegionKind.GLOBALS))
        assert space.region_at(0x1000) is r
        assert space.region_at(0x10FF) is r
        assert space.region_at(0x1100) is None
        assert space.region_at(0xFFF) is None

    def test_overlapping_map_rejected(self):
        space = AddressSpace()
        space.map_region(Region("a", 0x1000, 0x100, RegionKind.GLOBALS))
        with pytest.raises(ValueError):
            space.map_region(Region("b", 0x1080, 0x100, RegionKind.GLOBALS))

    def test_segfault_on_unmapped(self):
        space = AddressSpace()
        with pytest.raises(SegmentationFault):
            space.check_mapped(0xDEAD, 4, "read")

    def test_segfault_on_partial_overlap(self):
        space = AddressSpace()
        space.map_region(Region("a", 0x1000, 0x10, RegionKind.GLOBALS))
        with pytest.raises(SegmentationFault):
            space.check_mapped(0x100C, 8, "write")   # runs off the end

    def test_region_ends_and_adjacent_regions(self):
        """A zero-size access at a region's end belongs to the region
        starting there, and faults when none does; an access may not span
        two adjacent regions; lookups stay right after an unmap."""
        space = AddressSpace()
        a = space.map_region(Region("a", 0x1000, 0x10, RegionKind.GLOBALS))
        b = space.map_region(Region("b", 0x1010, 0x10, RegionKind.GLOBALS))
        c = space.map_region(Region("c", 0x2000, 0x10, RegionKind.GLOBALS))
        assert space.check_mapped(0x1000, 0x10, "read") is a
        assert space.check_mapped(0x1010, 0, "read") is b
        assert space.check_mapped(0x100F, 1, "read") is a
        with pytest.raises(SegmentationFault):
            space.check_mapped(0x100C, 8, "read")     # a into b
        with pytest.raises(SegmentationFault):
            space.check_mapped(0x1020, 0, "write")    # b's end, nothing after
        space.unmap_region(b)
        assert space.region_at(0x1010) is None
        assert space.region_at(0x100F) is a and space.region_at(0x2000) is c
        with pytest.raises(SegmentationFault):
            space.check_mapped(0x1010, 0, "read")
        assert [r.name for r in space.regions] == ["a", "c"]

    def test_scalar_store_load(self):
        space = AddressSpace()
        space.map_region(Region("g", 0x1000, 0x100, RegionKind.GLOBALS))
        space.store(0x1010, 4, 42)
        assert space.load(0x1010, 4) == 42
        assert space.load(0x1020, 4) == 0   # never written -> default

    def test_unmap_clears_values(self):
        space = AddressSpace()
        r = space.map_region(Region("g", 0x1000, 0x100, RegionKind.GLOBALS))
        space.store(0x1010, 4, 7)
        space.unmap_region(r)
        assert space.region_at(0x1010) is None

    def test_describe(self):
        space = AddressSpace()
        space.map_region(Region("heap", 0x1000, 0x100, RegionKind.HEAP))
        assert "heap" in space.describe(0x1004)
        assert "unmapped" in space.describe(0x9999)


class TestAllocator:
    def test_malloc_returns_aligned_disjoint_blocks(self):
        _, alloc = make_heap()
        a = alloc.malloc(10)
        b = alloc.malloc(10)
        assert a.addr % 16 == 0 and b.addr % 16 == 0
        assert a.end <= b.addr or b.end <= a.addr

    def test_recycling_reuses_address(self):
        """The Section IV-B mechanism: free then malloc aliases."""
        _, alloc = make_heap()
        a = alloc.malloc(32)
        addr = a.addr
        alloc.free(addr)
        b = alloc.malloc(32)
        assert b.addr == addr
        assert alloc.recycled_allocs == 1

    def test_first_fit_split(self):
        _, alloc = make_heap()
        a = alloc.malloc(64)
        alloc.free(a.addr)
        b = alloc.malloc(16)
        c = alloc.malloc(16)
        assert b.addr == a.addr
        assert c.addr == a.addr + 16   # carved out of the same hole

    def test_free_coalesces_neighbours(self):
        _, alloc = make_heap()
        blocks = [alloc.malloc(16) for _ in range(3)]
        for b in blocks:
            alloc.free(b.addr)
        big = alloc.malloc(48)
        assert big.addr == blocks[0].addr

    def test_double_free_detected(self):
        _, alloc = make_heap()
        a = alloc.malloc(8)
        alloc.free(a.addr)
        with pytest.raises(DoubleFree):
            alloc.free(a.addr)

    def test_out_of_memory(self):
        _, alloc = make_heap(size=256)
        with pytest.raises(OutOfMemory):
            alloc.malloc(512)

    def test_free_as_noop_replacement_defeats_recycling(self):
        """Taskgrind's workaround: with free replaced, addresses never alias."""
        _, alloc = make_heap()
        reg = ReplacementRegistry()
        reg.replace("free")
        alloc.replacements = reg
        a = alloc.malloc(32)
        alloc.free(a.addr)
        b = alloc.malloc(32)
        assert b.addr != a.addr
        assert alloc.retained_bytes == 32
        # the retained block still counts toward the footprint (6x memory!)
        assert alloc.footprint == 64

    def test_block_at_finds_live_and_retained(self):
        _, alloc = make_heap()
        reg = ReplacementRegistry()
        alloc.replacements = reg
        a = alloc.malloc(32)
        assert alloc.block_at(a.addr + 5) is a
        reg.replace("free")
        alloc.free(a.addr)
        assert alloc.block_at(a.addr + 5).retained

    def test_high_water_tracks_peak(self):
        _, alloc = make_heap()
        a = alloc.malloc(100)
        b = alloc.malloc(100)
        alloc.free(a.addr)
        alloc.free(b.addr)
        assert alloc.high_water >= 208   # two aligned 100-byte blocks
        assert alloc.live_bytes == 0

    def test_history_at(self):
        _, alloc = make_heap()
        a = alloc.malloc(16)
        alloc.free(a.addr)
        b = alloc.malloc(16)
        hist = alloc.block_history_at(a.addr)
        assert [blk.seq for blk in hist] == [a.seq, b.seq]


class TestFastArena:
    def test_recycles_despite_free_replacement(self):
        """Models __kmp_fast_allocate: the paper's unsupported allocator."""
        _, alloc = make_heap()
        reg = ReplacementRegistry()
        reg.replace("free")          # Taskgrind is active...
        alloc.replacements = reg
        arena = FastArena(alloc, chunk=64)
        a = arena.alloc(48)
        arena.release(a)
        b = arena.alloc(48)
        assert a == b                # ...but the pool recycles anyway
        assert arena.recycled_allocs == 1

    def test_distinct_when_live(self):
        _, alloc = make_heap()
        arena = FastArena(alloc, chunk=64)
        a = arena.alloc(10)
        b = arena.alloc(10)
        assert a != b

    def test_oversized_request_rejected(self):
        _, alloc = make_heap()
        arena = FastArena(alloc, chunk=64)
        with pytest.raises(ValueError):
            arena.alloc(100)
