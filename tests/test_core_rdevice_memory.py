"""Tests for the memory-resident rDEVICE array and rIOMMU context path."""

import pytest

from repro.core import RIommuDriver, RIommuHardware
from repro.core.structures import RDevice, RDEVICE_CAPACITY, RRING_ENTRY_BYTES
from repro.dma import DmaDirection
from repro.faults import ContextFault
from repro.memory import CoherencyDomain, MemorySystem, StaleReadError
from repro.modes import Mode
from tests.dma_helpers import riommu_map

BDF = 0x0300


@pytest.fixture
def mem():
    return MemorySystem(size_bytes=1 << 24)


def test_ring_descriptor_written_to_memory(mem):
    coherency = CoherencyDomain(coherent=True)
    device = RDevice(mem, coherency, BDF)
    rid = device.add_ring(32)
    entry_addr = device.table_addr + rid * RRING_ENTRY_BYTES
    assert mem.ram.read_u64(entry_addr) == device.ring(rid).table_addr
    assert mem.ram.read_u64(entry_addr + 8) == 32


def test_hardware_ring_descriptor_roundtrip(mem):
    coherency = CoherencyDomain(coherent=False)  # enforced flushes
    device = RDevice(mem, coherency, BDF)
    rid = device.add_ring(16)
    table_addr, size = device.hardware_ring_descriptor(rid)
    assert table_addr == device.ring(rid).table_addr
    assert size == 16


def test_add_ring_syncs_for_non_coherent_walker(mem):
    """add_ring must flush the descriptor or the walker would raise."""
    coherency = CoherencyDomain(coherent=False, enforce=True)
    device = RDevice(mem, coherency, BDF)
    rid = device.add_ring(8)
    device.hardware_ring_descriptor(rid)  # would raise StaleReadError if unflushed
    assert coherency.stats.stale_reads == 0


def test_rdevice_capacity_limit(mem):
    device = RDevice(mem, CoherencyDomain(coherent=True), BDF)
    for _ in range(RDEVICE_CAPACITY):
        device.add_ring(1)
    with pytest.raises(ValueError):
        device.add_ring(1)


def test_context_table_lookup_path(mem):
    """With mem+coherency, get_domain resolves via real context tables."""
    coherency = CoherencyDomain(coherent=True)
    hw = RIommuHardware(mem, coherency)
    assert hw.contexts is not None
    driver = RIommuDriver(mem, hw, BDF, Mode.RIOMMU, coherency=coherency)
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 100, DmaDirection.FROM_DEVICE)
    assert hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE) == phys
    with pytest.raises(ContextFault):
        hw.rtranslate(0x9999, iova, DmaDirection.FROM_DEVICE)


def test_context_detach_closes_lookup(mem):
    coherency = CoherencyDomain(coherent=True)
    hw = RIommuHardware(mem, coherency)
    driver = RIommuDriver(mem, hw, BDF, Mode.RIOMMU, coherency=coherency)
    rid = driver.create_ring(4)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 100, DmaDirection.FROM_DEVICE)
    hw.detach_device(BDF)
    with pytest.raises(ContextFault):
        hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)


def test_standalone_hardware_still_works(mem):
    """Without mem/coherency the registry fallback keeps unit use simple."""
    hw = RIommuHardware()
    assert hw.contexts is None
    driver = RIommuDriver(mem, hw, BDF, Mode.RIOMMU)
    rid = driver.create_ring(4)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 64, DmaDirection.FROM_DEVICE)
    assert hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE) == phys
