"""Tests for VT-d protection-domain semantics (shared page tables)."""

import pytest

from repro.dma import DmaDirection
from repro.faults import IoPageFault
from repro.iommu import BaselineIommuDriver, Iommu, make_bdf
from repro.memory import MemorySystem
from repro.modes import Mode
from tests.dma_helpers import dma_map, dma_unmap

BDF_A = make_bdf(0, 3, 0)
BDF_B = make_bdf(0, 4, 0)


@pytest.fixture
def shared():
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    driver = BaselineIommuDriver(mem, iommu, BDF_A, Mode.STRICT)
    driver.attach_alias(BDF_B)
    return mem, iommu, driver


def test_domain_ids_are_unique():
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    a = BaselineIommuDriver(mem, iommu, BDF_A, Mode.STRICT)
    b = BaselineIommuDriver(mem, iommu, BDF_B, Mode.STRICT)
    assert a.page_table.domain_id != b.page_table.domain_id


def test_domain_ids_are_scoped_to_one_iommu():
    # Each remapping unit numbers its own domains, so a machine's ids
    # do not depend on how many units the process built before it.
    first, second = (Iommu(MemorySystem(size_bytes=1 << 24)) for _ in range(2))
    assert first.allocate_domain_id() == second.allocate_domain_id() == 1
    assert first.allocate_domain_id() == 2


def test_alias_device_shares_mappings(shared):
    mem, iommu, driver = shared
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1024, DmaDirection.BIDIRECTIONAL)
    assert iommu.translate(BDF_A, iova, DmaDirection.FROM_DEVICE) == phys
    assert iommu.translate(BDF_B, iova, DmaDirection.FROM_DEVICE) == phys


def test_shared_domain_shares_iotlb_entries(shared):
    mem, iommu, driver = shared
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1024, DmaDirection.BIDIRECTIONAL)
    iommu.translate(BDF_A, iova, DmaDirection.FROM_DEVICE)  # fills the cache
    walks_before = iommu.stats.walks
    iommu.translate(BDF_B, iova, DmaDirection.FROM_DEVICE)  # same domain tag
    assert iommu.stats.walks == walks_before  # IOTLB hit, no new walk


def test_one_invalidation_covers_all_attached_devices(shared):
    mem, iommu, driver = shared
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1024, DmaDirection.BIDIRECTIONAL)
    iommu.translate(BDF_A, iova, DmaDirection.FROM_DEVICE)
    iommu.translate(BDF_B, iova, DmaDirection.FROM_DEVICE)
    dma_unmap(driver, iova)  # strict: one domain-tagged invalidation
    for bdf in (BDF_A, BDF_B):
        with pytest.raises(IoPageFault):
            iommu.translate(bdf, iova, DmaDirection.FROM_DEVICE)


def test_separate_drivers_remain_isolated():
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    driver_a = BaselineIommuDriver(mem, iommu, BDF_A, Mode.STRICT)
    BaselineIommuDriver(mem, iommu, BDF_B, Mode.STRICT)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver_a, phys, 1024, DmaDirection.BIDIRECTIONAL)
    iommu.translate(BDF_A, iova, DmaDirection.FROM_DEVICE)
    # B's own domain has no such mapping — and cannot ride A's cache.
    with pytest.raises(IoPageFault):
        iommu.translate(BDF_B, iova, DmaDirection.FROM_DEVICE)


def test_detach_of_alias_keeps_domain_usable(shared):
    mem, iommu, driver = shared
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1024, DmaDirection.BIDIRECTIONAL)
    iommu.detach_device(BDF_B)
    # A still translates (the cache was flushed, so this re-walks).
    assert iommu.translate(BDF_A, iova, DmaDirection.FROM_DEVICE) == phys
    with pytest.raises(IoPageFault):
        iommu.translate(BDF_B, iova, DmaDirection.FROM_DEVICE)
