"""Failure injection: the system must fail loudly, safely, or not at all.

Each test corrupts one component — a descriptor, a driver that forgets
to flush, a starved allocator, a tiny IOTLB — and checks that the
observable behaviour is the *designed* failure (drop, fault, back
pressure), never silent corruption.
"""

import pytest

from repro.core import RIommuDriver, RIommuHardware, RPte
from repro.devices import (
    Descriptor,
    DmaBus,
    FLAG_VALID,
    IdentityBackend,
    MLX_PROFILE,
    SimulatedNic,
)
from repro.dma import DmaDirection
from repro.faults import IoPageFault, TranslationFault
from repro.iommu import BaselineIommuDriver, Iommu
from repro.iova import IovaExhaustedError, LinuxIovaAllocator
from repro.kernel import Machine, NetDriver
from repro.memory import MemorySystem, StaleReadError
from repro.modes import Mode
from tests.dma_helpers import dma_map, dma_unmap, riommu_map

BDF = 0x0300


# -- corrupted descriptors ---------------------------------------------------


def test_invalid_descriptor_is_dropped_not_processed():
    machine = Machine(Mode.NONE)
    nic = SimulatedNic(machine.bus, BDF, MLX_PROFILE)
    driver = NetDriver(machine, nic, coalesce_threshold=4)
    driver.fill_rx()
    # Corrupt descriptor 0 in memory: clear the VALID flag.
    raw = driver.rx_ring.read_descriptor(0)
    raw.flags &= ~FLAG_VALID
    machine.mem.ram.write(driver.rx_ring.slot_phys(0), raw.encode())
    assert not nic.deliver_frame(b"x" * 100)
    assert nic.stats.rx_drops == 1


def test_descriptor_with_garbage_address_faults_under_protection():
    machine = Machine(Mode.STRICT)
    nic = SimulatedNic(machine.bus, BDF, MLX_PROFILE)
    driver = NetDriver(machine, nic, coalesce_threshold=4)
    driver.fill_rx()
    # Overwrite descriptor 0's target address with garbage (buggy driver).
    evil = Descriptor(segments=[(0xDEAD_BEEF_000, 1500)], flags=FLAG_VALID)
    machine.mem.ram.write(driver.rx_ring.slot_phys(0), evil.encode())
    with pytest.raises(IoPageFault):
        nic.deliver_frame(b"y" * 100)


def test_descriptor_with_garbage_address_corrupts_silently_without_iommu():
    """The contrast case: with the IOMMU off, garbage addresses just write."""
    machine = Machine(Mode.NONE)
    nic = SimulatedNic(machine.bus, BDF, MLX_PROFILE)
    driver = NetDriver(machine, nic, coalesce_threshold=4)
    driver.fill_rx()
    victim = machine.mem.alloc_dma_buffer(4096)  # unrelated allocation
    evil = Descriptor(segments=[(victim, 1500)], flags=FLAG_VALID)
    machine.mem.ram.write(driver.rx_ring.slot_phys(0), evil.encode())
    assert nic.deliver_frame(b"overwrites victim")
    assert machine.mem.ram.read(victim, 17) == b"overwrites victim"


# -- driver that forgets coherency maintenance --------------------------------------


class ForgetfulRIommuDriver(RIommuDriver):
    """A buggy driver that skips sync_mem after the rPTE store."""

    def map(self, rid, phys_addr, size, direction):
        ring = self.device.ring(rid)
        rentry = ring.tail
        ring.tail = (ring.tail + 1) % ring.size
        ring.nmapped += 1
        ring.write_pte(rentry, RPte(phys_addr, size, direction, True))
        # BUG: no sync_mem here.
        from repro.core.structures import RIova

        return RIova(offset=0, rentry=rentry, rid=rid)


def test_missing_flush_is_detected_by_coherency_domain():
    mem = MemorySystem(size_bytes=1 << 24)
    hw = RIommuHardware()
    driver = ForgetfulRIommuDriver(mem, hw, BDF, Mode.RIOMMU_NC)
    rid = driver.create_ring(8)
    phys = mem.alloc_dma_buffer(4096)
    iova = driver.map(rid, phys, 100, DmaDirection.FROM_DEVICE)
    with pytest.raises(StaleReadError):
        hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE)


# -- resource exhaustion ------------------------------------------------------------------


def test_iova_exhaustion_surfaces_cleanly():
    allocator = LinuxIovaAllocator(limit_pfn=16)  # pfns 0..16: 17 pages
    for _ in range(4):
        allocator.alloc(4)
    allocator.alloc(1)  # the last free page
    with pytest.raises(IovaExhaustedError):
        allocator.alloc(1)


def test_riommu_ring_pressure_is_backpressure_not_corruption():
    mem = MemorySystem(size_bytes=1 << 24)
    hw = RIommuHardware()
    driver = RIommuDriver(mem, hw, BDF, Mode.RIOMMU)
    rid = driver.create_ring(4)
    phys = mem.alloc_dma_buffer(4096)
    iovas = [
        riommu_map(driver, rid, phys, 64, DmaDirection.FROM_DEVICE)
        for _ in range(4)
    ]
    from repro.core import RingOverflowError

    with pytest.raises(RingOverflowError):
        riommu_map(driver, rid, phys, 64, DmaDirection.FROM_DEVICE)
    # Every pre-existing mapping still translates correctly.
    for iova in iovas:
        assert hw.rtranslate(BDF, iova, DmaDirection.FROM_DEVICE) == phys


# -- degenerate IOTLB -----------------------------------------------------------------------


def test_single_entry_iotlb_still_correct():
    """Capacity 1 thrashes but never mistranslates."""
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem, iotlb_capacity=1)
    driver = BaselineIommuDriver(mem, iommu, BDF, Mode.STRICT)
    buffers = []
    for i in range(8):
        phys = mem.alloc_dma_buffer(4096)
        mem.ram.write(phys, bytes([i]) * 16)
        buffers.append((dma_map(driver, phys, 4096, DmaDirection.BIDIRECTIONAL), phys))
    for _round in range(3):
        for iova, phys in buffers:
            assert iommu.translate(BDF, iova, DmaDirection.TO_DEVICE) == phys
    assert iommu.iotlb.stats.evictions > 0


# -- device keeps running after a reported fault ------------------------------------------------


def test_nic_survives_fault_and_continues():
    machine = Machine(Mode.STRICT)
    api = machine.dma_api(BDF)
    nic = SimulatedNic(machine.bus, BDF, MLX_PROFILE)
    driver = NetDriver(machine, nic, coalesce_threshold=4)
    driver.fill_rx()
    resets = []
    nic.on_io_page_fault = lambda fault: resets.append(fault)

    # Sabotage the first posted descriptor's buffer, fault once ...
    _index, buffers = driver._rx_posted[0]
    dma_unmap(api, buffers[0].device_addr)
    assert not nic.deliver_frame(b"b" * 800)
    assert len(resets) == 1
    # ... the head never advanced past the bad descriptor; re-arm it by
    # remapping a fresh buffer into the same descriptor (what a reset
    # handler would do), then traffic flows again.
    fresh = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api, fresh, 1500, DmaDirection.FROM_DEVICE)
    repaired = Descriptor(segments=[(handle, 1500)], flags=FLAG_VALID)
    machine.mem.ram.write(driver.rx_ring.slot_phys(0), repaired.encode())
    assert nic.deliver_frame(b"recovered" * 10)


# -- memory exhaustion ---------------------------------------------------------------------------


def test_out_of_physical_memory_is_loud():
    from repro.memory import OutOfMemoryError

    tiny = MemorySystem(size_bytes=64 * 4096, reserved_frames=0)
    with pytest.raises(OutOfMemoryError):
        for _ in range(100):
            tiny.alloc_dma_buffer(4096)
