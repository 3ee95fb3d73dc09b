"""Unit tests for the rIOMMU hardware logic and software driver."""

import pytest

from repro.core import RIommuDriver, RIommuHardware, RIova, RingOverflowError
from repro.dma import DmaDirection
from repro.faults import (
    BoundsFault,
    ContextFault,
    IoPageFault,
    PermissionFault,
    TranslationFault,
)
from repro.memory import MemorySystem
from repro.modes import Mode
from tests.dma_helpers import riommu_map, riommu_unmap

BDF = 0x0300


@pytest.fixture
def setup():
    mem = MemorySystem(size_bytes=1 << 26)
    hardware = RIommuHardware()
    driver = RIommuDriver(mem, hardware, BDF, Mode.RIOMMU)
    return mem, hardware, driver


def test_map_translate_roundtrip(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 1500, DmaDirection.FROM_DEVICE)
    assert hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE) == phys


def test_fine_grained_offset(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys + 64, 1000, DmaDirection.FROM_DEVICE)
    assert hw.rtranslate(BDF, iova.with_offset(999), DmaDirection.FROM_DEVICE) == phys + 64 + 999


def test_offset_beyond_size_faults(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 1000, DmaDirection.FROM_DEVICE)
    with pytest.raises(BoundsFault):
        hw.rtranslate(BDF, iova.with_offset(1000), DmaDirection.FROM_DEVICE)


def test_sub_page_protection(setup):
    """Two buffers on the same page: unmapping one must not expose the other.

    This is the fine-grained advantage over the baseline IOMMU (§4).
    """
    mem, hw, driver = setup
    rid = driver.create_ring(8)
    page = mem.alloc_dma_buffer(4096)
    a = riommu_map(driver, rid, page, 100, DmaDirection.FROM_DEVICE)
    b = riommu_map(driver, rid, page + 2048, 100, DmaDirection.FROM_DEVICE)
    riommu_unmap(driver, a, end_of_burst=True)
    with pytest.raises(TranslationFault):
        hw.rtranslate(BDF, a, DmaDirection.FROM_DEVICE)
    # b still works, and cannot reach a's bytes (offset bound = 100).
    assert hw.rtranslate(BDF, b, DmaDirection.FROM_DEVICE) == page + 2048
    with pytest.raises(BoundsFault):
        hw.rtranslate(BDF, b.with_offset(200), DmaDirection.FROM_DEVICE)


def test_direction_enforced(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 100, DmaDirection.TO_DEVICE)
    with pytest.raises(PermissionFault):
        hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)


def test_bidirectional_permits_both(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 100, DmaDirection.BIDIRECTIONAL)
    assert hw.rtranslate(BDF, iova, DmaDirection.TO_DEVICE) == phys
    assert hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE) == phys


def test_unknown_bdf_faults(setup):
    _mem, hw, _driver = setup
    with pytest.raises(ContextFault):
        hw.rtranslate(0x9999, RIova(0, 0, 0), DmaDirection.FROM_DEVICE)


def test_bad_rid_and_rentry_fault(setup):
    mem, hw, driver = setup
    driver.create_ring(4)
    with pytest.raises(TranslationFault):
        hw.rtranslate(BDF, RIova(0, 0, 5), DmaDirection.FROM_DEVICE)  # bad rid
    with pytest.raises(TranslationFault):
        hw.rtranslate(BDF, RIova(0, 7, 0), DmaDirection.FROM_DEVICE)  # bad rentry


def test_invalid_rpte_faults(setup):
    _mem, hw, driver = setup
    driver.create_ring(4)
    with pytest.raises(TranslationFault):
        hw.rtranslate(BDF, RIova(0, 0, 0), DmaDirection.FROM_DEVICE)


def test_ring_overflow(setup):
    mem, _hw, driver = setup
    rid = driver.create_ring(2)
    phys = mem.alloc_dma_buffer(4096)
    riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
    riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
    with pytest.raises(RingOverflowError):
        riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)


def test_overflow_clears_after_unmap(setup):
    mem, _hw, driver = setup
    rid = driver.create_ring(2)
    phys = mem.alloc_dma_buffer(4096)
    a = riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
    riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
    riommu_unmap(driver, a, end_of_burst=True)
    riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)  # no overflow now


def test_tail_wraps_around(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(4)
    phys = mem.alloc_dma_buffer(4096)
    for cycle in range(10):
        iova = riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
        assert iova.rentry == cycle % 4
        hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)
        riommu_unmap(driver, iova, end_of_burst=True)


def test_at_most_one_riotlb_entry_per_ring(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(16)
    phys = mem.alloc_dma_buffer(4096)
    iovas = [
        riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
        for _ in range(8)
    ]
    for iova in iovas:
        hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)
        assert hw.riotlb.entries_for_ring(BDF, rid) == 1
    assert len(hw.riotlb) == 1


def test_sequential_access_uses_prefetch(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(32)
    phys = mem.alloc_dma_buffer(4096)
    iovas = [
        riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
        for _ in range(16)
    ]
    for iova in iovas:
        hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)
    stats = hw.riotlb.stats
    assert stats.misses == 1  # only the first access walks cold
    assert stats.prefetch_hits == 15
    assert stats.sync_walks == 0


def test_out_of_order_access_still_translates(setup):
    """Paper §4: out-of-order use of *mapped* IOVAs is legal, just unprefetched."""
    mem, hw, driver = setup
    rid = driver.create_ring(32)
    phys = mem.alloc_dma_buffer(4096)
    iovas = [
        riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
        for _ in range(8)
    ]
    order = [3, 0, 7, 2, 5, 1, 6, 4]
    for i in order:
        assert hw.rtranslate(BDF, iovas[i], DmaDirection.FROM_DEVICE) == phys
    assert hw.riotlb.stats.sync_walks > 0  # paid the DRAM fetch, no fault


def test_end_of_burst_invalidates(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iovas = [
        riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
        for _ in range(3)
    ]
    for iova in iovas:
        hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)
    for i, iova in enumerate(iovas):
        riommu_unmap(driver, iova, end_of_burst=(i == 2))
    assert hw.riotlb.stats.invalidations == 1
    assert len(hw.riotlb) == 0
    for iova in iovas:
        with pytest.raises(IoPageFault):
            hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)


def test_unmap_unknown_entry_raises(setup):
    _mem, _hw, driver = setup
    driver.create_ring(4)
    with pytest.raises(KeyError):
        riommu_unmap(driver, RIova(0, 2, 0))


def test_nmapped_tracks_live(setup):
    mem, _hw, driver = setup
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 10, DmaDirection.FROM_DEVICE)
    assert driver.nmapped(rid) == 1
    riommu_unmap(driver, iova, end_of_burst=True)
    assert driver.nmapped(rid) == 0


def test_map_size_limits(setup):
    mem, _hw, driver = setup
    rid = driver.create_ring(4)
    phys = mem.alloc_dma_buffer(4096)
    with pytest.raises(ValueError):
        riommu_map(driver, rid, phys, 0, DmaDirection.FROM_DEVICE)
    with pytest.raises(ValueError):
        riommu_map(driver, rid, phys, 1 << 31, DmaDirection.FROM_DEVICE)


def test_riommu_nc_mode_flushes_correctly():
    """riommu- must sync_mem with flushes; the enforced domain verifies."""
    mem = MemorySystem(size_bytes=1 << 24)
    hw = RIommuHardware()
    driver = RIommuDriver(mem, hw, BDF, Mode.RIOMMU_NC)
    assert not driver.coherency.coherent
    rid = driver.create_ring(4)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 100, DmaDirection.FROM_DEVICE)
    # Hardware read enforces that the driver flushed the rPTE line.
    assert hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE) == phys
    riommu_unmap(driver, iova, end_of_burst=True)
    assert driver.coherency.stats.flushes >= 2  # map + unmap


def test_driver_rejects_baseline_modes():
    mem = MemorySystem(size_bytes=1 << 24)
    with pytest.raises(ValueError):
        RIommuDriver(mem, RIommuHardware(), BDF, Mode.STRICT)


def test_shutdown_detaches(setup):
    mem, hw, driver = setup
    rid = driver.create_ring(4)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 100, DmaDirection.FROM_DEVICE)
    driver.shutdown()
    with pytest.raises(ContextFault):
        hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)


def test_riommu_cost_charging(setup):
    from repro.perf import Component

    mem, _hw, driver = setup
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = riommu_map(driver, rid, phys, 100, DmaDirection.FROM_DEVICE)
    map_cost = driver.account.map_total()
    assert 0 < map_cost < 500  # orders of magnitude below strict's 4,618
    riommu_unmap(driver, iova, end_of_burst=True)
    assert driver.account.cycles[Component.IOTLB_INV] == pytest.approx(2150.0)
