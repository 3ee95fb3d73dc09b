"""Unit tests for the baseline IOMMU driver (strict/defer, +/non-+)."""

import pytest

from repro.dma import DmaDirection
from repro.faults import IoPageFault, PermissionFault, TranslationFault
from repro.iommu import BaselineIommuDriver, Iommu, make_bdf
from repro.iova import IovaNotFoundError, LinuxIovaAllocator, MagazineIovaAllocator
from repro.memory import MemorySystem
from repro.modes import BASELINE_MODES, Mode
from repro.perf import Component
from tests.dma_helpers import dma_map, dma_unmap

BDF = make_bdf(0, 3, 0)


def build(mode, flush_threshold=250):
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    driver = BaselineIommuDriver(mem, iommu, BDF, mode, flush_threshold=flush_threshold)
    return mem, iommu, driver


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_map_translate_roundtrip(mode):
    mem, iommu, driver = build(mode)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1500, DmaDirection.FROM_DEVICE)
    assert iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE) == phys


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_unmap_returns_phys(mode):
    mem, _iommu, driver = build(mode)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1500, DmaDirection.FROM_DEVICE)
    assert dma_unmap(driver, iova) == phys


def test_rejects_riommu_modes():
    mem = MemorySystem(size_bytes=1 << 24)
    iommu = Iommu(mem)
    with pytest.raises(ValueError):
        BaselineIommuDriver(mem, iommu, BDF, Mode.RIOMMU)


def test_map_rejects_nonpositive_size():
    _mem, _iommu, driver = build(Mode.STRICT)
    with pytest.raises(ValueError):
        dma_map(driver, 0x4000, 0, DmaDirection.FROM_DEVICE)


def test_offset_within_page_preserved():
    mem, iommu, driver = build(Mode.STRICT)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys + 100, 200, DmaDirection.FROM_DEVICE)
    assert iova & 0xFFF == 100
    assert iommu.translate(BDF, iova + 5, DmaDirection.FROM_DEVICE) == phys + 105


def test_multi_page_buffer_mapped_contiguously():
    mem, iommu, driver = build(Mode.STRICT)
    phys = mem.alloc_dma_buffer(3 * 4096)
    iova = dma_map(driver, phys, 3 * 4096, DmaDirection.TO_DEVICE)
    for off in (0, 4096, 2 * 4096 + 17):
        assert iommu.translate(BDF, iova + off, DmaDirection.TO_DEVICE) == phys + off


def test_strict_unmap_faults_immediately():
    mem, iommu, driver = build(Mode.STRICT)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1500, DmaDirection.FROM_DEVICE)
    iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)  # cache it
    dma_unmap(driver, iova)
    with pytest.raises(IoPageFault):
        iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)


def test_defer_leaves_stale_window_until_flush():
    mem, iommu, driver = build(Mode.DEFER, flush_threshold=3)
    physes = [mem.alloc_dma_buffer(4096) for _ in range(3)]
    iovas = [dma_map(driver, p, 1500, DmaDirection.FROM_DEVICE) for p in physes]
    for iova in iovas:
        iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)
    dma_unmap(driver, iovas[0])
    # Stale IOTLB entry still translates: the vulnerability window.
    assert iommu.translate(BDF, iovas[0], DmaDirection.FROM_DEVICE) == physes[0]
    assert iommu.iotlb.stats.stale_hits >= 1
    dma_unmap(driver, iovas[1])
    dma_unmap(driver, iovas[2])  # third unmap hits the threshold -> global flush
    assert driver.pending_invalidations() == 0
    with pytest.raises(IoPageFault):
        iommu.translate(BDF, iovas[0], DmaDirection.FROM_DEVICE)


def test_defer_vulnerability_window_is_bounded():
    _mem, _iommu, driver = build(Mode.DEFER, flush_threshold=5)
    for i in range(14):
        phys = driver.mem.alloc_dma_buffer(4096)
        iova = dma_map(driver, phys, 100, DmaDirection.FROM_DEVICE)
        dma_unmap(driver, iova)
        assert driver.pending_invalidations() < 5


def test_direction_enforced_via_translate():
    mem, iommu, driver = build(Mode.STRICT)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1500, DmaDirection.TO_DEVICE)
    with pytest.raises(PermissionFault):
        iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)


def test_unmap_unknown_iova_raises():
    _mem, _iommu, driver = build(Mode.STRICT)
    with pytest.raises(IovaNotFoundError):
        dma_unmap(driver, 0x123456000)


def test_allocator_selected_by_mode():
    for mode in BASELINE_MODES:
        _mem, _iommu, driver = build(mode)
        expected = MagazineIovaAllocator if mode.uses_magazine_allocator else LinuxIovaAllocator
        assert isinstance(driver.allocator, expected)


def test_charges_match_table1_constants():
    from repro.perf import TABLE1_SUMS

    for mode in BASELINE_MODES:
        mem, _iommu, driver = build(mode)
        phys = mem.alloc_dma_buffer(4096)
        iova = dma_map(driver, phys, 1500, DmaDirection.FROM_DEVICE)
        dma_unmap(driver, iova)
        assert driver.account.map_total() == pytest.approx(TABLE1_SUMS[mode]["map"])
        assert driver.account.unmap_total() == pytest.approx(TABLE1_SUMS[mode]["unmap"])


def test_live_mappings_tracking():
    mem, _iommu, driver = build(Mode.STRICT)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 100, DmaDirection.FROM_DEVICE)
    assert driver.live_mappings() == 1
    dma_unmap(driver, iova)
    assert driver.live_mappings() == 0


def test_shutdown_drains_and_detaches():
    mem, iommu, driver = build(Mode.DEFER, flush_threshold=100)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 100, DmaDirection.FROM_DEVICE)
    dma_unmap(driver, iova)
    assert driver.pending_invalidations() == 1
    driver.shutdown()
    assert driver.pending_invalidations() == 0
    with pytest.raises(IoPageFault):
        iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)


def test_iova_reuse_after_strict_unmap():
    mem, iommu, driver = build(Mode.STRICT)
    phys1 = mem.alloc_dma_buffer(4096)
    iova1 = dma_map(driver, phys1, 100, DmaDirection.FROM_DEVICE)
    dma_unmap(driver, iova1)
    phys2 = mem.alloc_dma_buffer(4096)
    iova2 = dma_map(driver, phys2, 100, DmaDirection.FROM_DEVICE)
    assert iova2 == iova1  # top-down allocator reuses the freed address
    assert iommu.translate(BDF, iova2, DmaDirection.FROM_DEVICE) == phys2
