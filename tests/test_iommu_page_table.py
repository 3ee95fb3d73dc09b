"""Unit tests for the 4-level radix I/O page table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dma import DmaDirection
from repro.faults import PermissionFault, TranslationFault
from repro.iommu import (
    PTE_READ,
    PTE_WRITE,
    RadixPageTable,
    direction_allowed,
    perms_from_direction,
)
from repro.memory import CoherencyDomain, MemorySystem, PAGE_SIZE, iova_from_vpn


@pytest.fixture
def table():
    mem = MemorySystem(size_bytes=1 << 26)
    coherency = CoherencyDomain(coherent=False)
    return RadixPageTable(mem, coherency, domain_id=1)


def test_perms_from_direction():
    assert perms_from_direction(DmaDirection.TO_DEVICE) == PTE_READ
    assert perms_from_direction(DmaDirection.FROM_DEVICE) == PTE_WRITE
    assert perms_from_direction(DmaDirection.BIDIRECTIONAL) == PTE_READ | PTE_WRITE


def test_direction_allowed():
    assert direction_allowed(PTE_READ, DmaDirection.TO_DEVICE)
    assert not direction_allowed(PTE_READ, DmaDirection.FROM_DEVICE)
    assert direction_allowed(PTE_READ | PTE_WRITE, DmaDirection.BIDIRECTIONAL)
    assert not direction_allowed(PTE_WRITE, DmaDirection.BIDIRECTIONAL)


def test_map_then_walk(table):
    iova = iova_from_vpn(0x1234)
    phys = table.mem.allocator.alloc_page()
    table.map_page(iova, phys, DmaDirection.FROM_DEVICE)
    result = table.walk(iova, DmaDirection.FROM_DEVICE)
    assert result.frame_addr == phys
    assert result.levels_read == 4


def test_walk_unmapped_faults(table):
    with pytest.raises(TranslationFault):
        table.walk(iova_from_vpn(77), DmaDirection.FROM_DEVICE)


def test_unmap_makes_walk_fault(table):
    iova = iova_from_vpn(42)
    phys = table.mem.allocator.alloc_page()
    table.map_page(iova, phys, DmaDirection.FROM_DEVICE)
    table.unmap_page(iova)
    with pytest.raises(TranslationFault):
        table.walk(iova, DmaDirection.FROM_DEVICE)


def test_direction_enforced_on_walk(table):
    iova = iova_from_vpn(7)
    phys = table.mem.allocator.alloc_page()
    table.map_page(iova, phys, DmaDirection.TO_DEVICE)
    with pytest.raises(PermissionFault):
        table.walk(iova, DmaDirection.FROM_DEVICE)


def test_double_map_rejected(table):
    iova = iova_from_vpn(9)
    phys = table.mem.allocator.alloc_page()
    table.map_page(iova, phys, DmaDirection.FROM_DEVICE)
    with pytest.raises(ValueError):
        table.map_page(iova, phys, DmaDirection.FROM_DEVICE)


def test_unmap_unmapped_faults(table):
    with pytest.raises(TranslationFault):
        table.unmap_page(iova_from_vpn(1))


def test_offset_preserved_in_resolve(table):
    iova = iova_from_vpn(3) + 123
    phys = table.mem.allocator.alloc_page()
    table.map_page(iova, phys, DmaDirection.FROM_DEVICE)
    assert table.resolve(iova_from_vpn(3) + 55) == phys + 55


def test_first_map_allocates_tables(table):
    stats = table.map_page(
        iova_from_vpn(0), table.mem.allocator.alloc_page(), DmaDirection.FROM_DEVICE
    )
    assert stats.tables_allocated == 3  # levels 2..4 under the root
    assert stats.entries_written == 4


def test_sibling_map_reuses_tables(table):
    phys = table.mem.allocator.alloc_page()
    table.map_page(iova_from_vpn(0), phys, DmaDirection.FROM_DEVICE)
    stats = table.map_page(
        iova_from_vpn(1), table.mem.allocator.alloc_page(), DmaDirection.FROM_DEVICE
    )
    assert stats.tables_allocated == 0
    assert stats.entries_written == 1


def test_distant_vpns_do_not_collide(table):
    a = iova_from_vpn(0)
    b = iova_from_vpn(1 << 27)  # differs at the root level
    pa = table.mem.allocator.alloc_page()
    pb = table.mem.allocator.alloc_page()
    table.map_page(a, pa, DmaDirection.FROM_DEVICE)
    table.map_page(b, pb, DmaDirection.FROM_DEVICE)
    assert table.walk(a, DmaDirection.FROM_DEVICE).frame_addr == pa
    assert table.walk(b, DmaDirection.FROM_DEVICE).frame_addr == pb


def test_mapped_pages_counter(table):
    phys = table.mem.allocator.alloc_page()
    table.map_page(iova_from_vpn(5), phys, DmaDirection.FROM_DEVICE)
    assert table.mapped_pages == 1
    table.unmap_page(iova_from_vpn(5))
    assert table.mapped_pages == 0


def test_walker_sees_flushed_updates_only(table):
    """map_page must sync so a non-coherent walker never reads stale PTEs."""
    iova = iova_from_vpn(11)
    phys = table.mem.allocator.alloc_page()
    table.map_page(iova, phys, DmaDirection.FROM_DEVICE)
    # enforce=True in the fixture's domain: a missing flush would raise.
    table.walk(iova, DmaDirection.FROM_DEVICE)
    assert table.coherency.stats.stale_reads == 0


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=(1 << 30)), min_size=1, max_size=40))
def test_property_map_resolve_roundtrip(vpns):
    mem = MemorySystem(size_bytes=1 << 26)
    table = RadixPageTable(mem, CoherencyDomain(coherent=True), domain_id=1)
    mapping = {}
    for vpn in vpns:
        phys = mem.allocator.alloc_page()
        table.map_page(iova_from_vpn(vpn), phys, DmaDirection.BIDIRECTIONAL)
        mapping[vpn] = phys
    for vpn, phys in mapping.items():
        assert table.walk(iova_from_vpn(vpn), DmaDirection.FROM_DEVICE).frame_addr == phys
    assert table.mapped_pages == len(mapping)
