"""Integration tests: the *protection* semantics the IOMMU exists for.

These drive full machines (device + bus + (r)IOMMU + driver) and verify
the security properties end to end: faults on unmapped/rogue DMAs, the
deferred mode's bounded vulnerability window, rIOMMU's fine-grained
bounds, and data integrity through every translation path.
"""

import pytest

from repro.devices import MLX_PROFILE, SimulatedNic
from repro.dma import DmaDirection
from repro.faults import IoPageFault
from repro.kernel import Machine, NetDriver
from repro.modes import ALL_MODES, Mode
from tests.dma_helpers import dma_map, dma_unmap

BDF = 0x0300


@pytest.mark.parametrize("mode", [m for m in ALL_MODES if m.protected])
def test_rogue_dma_to_unmapped_address_faults(mode):
    machine = Machine(mode)
    machine.dma_api(BDF)  # attach the device
    if mode.is_riommu:
        machine.dma_api(BDF).create_ring(4)
        rogue_addr = 0  # rid 0 / rentry 0: never mapped
    else:
        rogue_addr = 0x7000_0000
    with pytest.raises(IoPageFault):
        machine.bus.dma_write(BDF, rogue_addr, b"evil")


@pytest.mark.parametrize("mode", [m for m in ALL_MODES if m.protected and m.safe])
def test_safe_modes_fault_immediately_after_burst_unmap(mode):
    """In every *safe* mode, once the driver finishes the unmap burst the
    device cannot touch the buffer again."""
    machine = Machine(mode)
    api = machine.dma_api(BDF)
    ring = api.create_ring(8)
    phys = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api, phys, 512, DmaDirection.BIDIRECTIONAL, ring=ring)
    machine.bus.dma_write(BDF, handle, b"legit")
    dma_unmap(api, handle, end_of_burst=True)
    with pytest.raises(IoPageFault):
        machine.bus.dma_write(BDF, handle, b"after unmap")


def test_deferred_mode_window_closes_at_flush():
    machine = Machine(Mode.DEFER, flush_threshold=4)
    api = machine.dma_api(BDF)
    phys = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api, phys, 512, DmaDirection.BIDIRECTIONAL)
    machine.bus.dma_write(BDF, handle, b"warm the IOTLB")
    dma_unmap(api, handle)
    # Window open: the device can still write through the stale entry.
    machine.bus.dma_write(BDF, handle, b"stale write")
    assert machine.mem.ram.read(phys, 11) == b"stale write"
    # Three more unmaps reach the threshold and flush the IOTLB.
    for _ in range(3):
        p = machine.mem.alloc_dma_buffer(4096)
        dma_unmap(api, dma_map(api, p, 64, DmaDirection.FROM_DEVICE))
    with pytest.raises(IoPageFault):
        machine.bus.dma_write(BDF, handle, b"window closed")


def test_baseline_page_granularity_weakness_vs_riommu():
    """Two buffers sharing a page: the baseline IOMMU keeps the whole page
    accessible while either is mapped; rIOMMU does not (paper §4)."""
    # Baseline: unmapping buffer A leaves A's bytes reachable via B's page.
    machine = Machine(Mode.STRICT)
    api = machine.dma_api(BDF)
    page = machine.mem.alloc_dma_buffer(4096)
    a = dma_map(api, page, 128, DmaDirection.BIDIRECTIONAL)
    b = dma_map(api, page + 2048, 128, DmaDirection.BIDIRECTIONAL)
    dma_unmap(api, a)
    # B's IOVA still maps the whole page, so A's bytes remain exposed.
    machine.bus.dma_write(BDF, (b & ~0xFFF) | 0, b"overwrites A")
    assert machine.mem.ram.read(page, 12) == b"overwrites A"

    # rIOMMU: same layout, but B's rPTE bounds the access to B's 128 bytes.
    machine2 = Machine(Mode.RIOMMU)
    api2 = machine2.dma_api(BDF)
    ring = api2.create_ring(8)
    page2 = machine2.mem.alloc_dma_buffer(4096)
    a2 = dma_map(api2, page2, 128, DmaDirection.BIDIRECTIONAL, ring=ring)
    b2 = dma_map(api2, page2 + 2048, 128, DmaDirection.BIDIRECTIONAL, ring=ring)
    dma_unmap(api2, a2, end_of_burst=True)
    with pytest.raises(IoPageFault):
        machine2.bus.dma_write(BDF, b2 + 128, b"x")  # beyond B's bounds


@pytest.mark.parametrize("mode", ALL_MODES)
def test_payload_integrity_through_every_mode(mode):
    """Bytes sent through the full NIC stack arrive bit-exact."""
    machine = Machine(mode)
    nic = SimulatedNic(machine.bus, BDF, MLX_PROFILE)
    received = []
    driver = NetDriver(machine, nic, coalesce_threshold=4, packet_sink=received.append)
    driver.fill_rx()
    payloads = [bytes([i, i ^ 0xFF]) * 700 for i in range(12)]
    for payload in payloads:
        assert nic.deliver_frame(payload)
        assert driver.transmit(payload)
    driver.pump_tx()
    driver.flush_rx()
    driver.flush_tx()
    assert received == payloads
    assert nic.wire == payloads


@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.RIOMMU_NC])
def test_no_stale_hardware_reads_in_enforced_domains(mode):
    """The driver must flush every structure the walker reads (coherency)."""
    machine = Machine(mode, enforce_coherency=True)
    nic = SimulatedNic(machine.bus, BDF, MLX_PROFILE)
    driver = NetDriver(machine, nic, coalesce_threshold=8)
    driver.fill_rx()
    for _ in range(20):
        nic.deliver_frame(b"c" * 800)
    driver.flush_rx()
    assert machine.coherency.stats.stale_reads == 0


def test_two_devices_are_isolated():
    """Device A cannot use device B's IOVAs (per-device page tables)."""
    machine = Machine(Mode.STRICT)
    api_a = machine.dma_api(0x0300)
    machine.dma_api(0x0400)
    phys = machine.mem.alloc_dma_buffer(4096)
    iova = dma_map(api_a, phys, 512, DmaDirection.BIDIRECTIONAL)
    machine.bus.dma_write(0x0300, iova, b"mine")
    with pytest.raises(IoPageFault):
        machine.bus.dma_write(0x0400, iova, b"not yours")


def test_riommu_devices_are_isolated():
    machine = Machine(Mode.RIOMMU)
    api_a = machine.dma_api(0x0300)
    api_b = machine.dma_api(0x0400)
    ring_a = api_a.create_ring(4)
    api_b.create_ring(4)
    phys = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api_a, phys, 64, DmaDirection.BIDIRECTIONAL, ring=ring_a)
    machine.bus.dma_write(0x0300, handle, b"ok")
    with pytest.raises(IoPageFault):
        machine.bus.dma_write(0x0400, handle, b"cross-device")
