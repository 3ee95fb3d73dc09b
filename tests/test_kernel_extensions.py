"""Tests for the extension layers: multi-queue NIC, NVMe driver, IOPF
handling, pass-through backends, and cost-model ablation hooks."""

import pytest

from repro.devices import (
    DmaBus,
    HwptBackend,
    MLX_PROFILE,
    MultiQueueNic,
    SimulatedNic,
    SwptBackend,
)
from repro.devices.nvme import NvmeController, NVME_BLOCK_BYTES
from repro.dma import DmaDirection
from repro.faults import IoPageFault
from repro.iommu.iotlb import Iotlb
from repro.kernel import (
    Machine,
    MultiQueueNetDriver,
    NetDriver,
    NvmeDriver,
    NvmeDriverError,
)
from repro.memory import MemorySystem
from repro.modes import Mode
from repro.perf import Component, CostModel, CostPolicy
from tests.dma_helpers import dma_map, dma_unmap

BDF = 0x0300


# -- multi-queue ------------------------------------------------------------


def test_multiqueue_nic_validation():
    machine = Machine(Mode.NONE)
    with pytest.raises(ValueError):
        MultiQueueNic(machine.bus, BDF, MLX_PROFILE, num_queues=0)


def test_rss_is_stable_and_in_range():
    machine = Machine(Mode.NONE)
    nic = MultiQueueNic(machine.bus, BDF, MLX_PROFILE, num_queues=4)
    for flow in range(100):
        q = nic.rss_queue(flow)
        assert 0 <= q < 4
        assert q == nic.rss_queue(flow)


def test_rss_spreads_flows():
    machine = Machine(Mode.NONE)
    nic = MultiQueueNic(machine.bus, BDF, MLX_PROFILE, num_queues=4)
    used = {nic.rss_queue(flow) for flow in range(64)}
    assert len(used) == 4


@pytest.mark.parametrize("mode", [Mode.NONE, Mode.STRICT, Mode.RIOMMU])
def test_multiqueue_end_to_end(mode):
    machine = Machine(mode)
    nic = MultiQueueNic(machine.bus, BDF, MLX_PROFILE, num_queues=4)
    driver = MultiQueueNetDriver(machine, nic, coalesce_threshold=8)
    driver.fill_rx()
    for flow in range(16):
        for _ in range(5):
            assert driver.deliver(flow, bytes([flow]) * 400)
            assert driver.transmit(flow, bytes([flow ^ 0xFF]) * 400)
    driver.pump_and_flush()
    assert driver.packets_received == 80
    assert driver.packets_transmitted == 80


def test_multiqueue_riommu_one_riotlb_entry_per_queue():
    machine = Machine(Mode.RIOMMU)
    nic = MultiQueueNic(machine.bus, BDF, MLX_PROFILE, num_queues=4)
    driver = MultiQueueNetDriver(machine, nic, coalesce_threshold=64)
    driver.fill_rx()
    for flow in range(32):
        driver.deliver(flow, b"m" * 900)
    # Each active queue translated through at most its own rings' entries:
    # rIOTLB never holds more than rings-touched entries, and per ring <=1.
    assert machine.riommu is not None
    riotlb = machine.riommu.riotlb
    rdriver = machine.dma_api(BDF).driver
    for rid in range(rdriver.device.size):
        assert riotlb.entries_for_ring(BDF, rid) <= 1


# -- IOPF handling --------------------------------------------------------------


def test_nic_iopf_reported_not_raised_when_handler_set():
    machine = Machine(Mode.STRICT)
    api = machine.dma_api(BDF)
    nic = SimulatedNic(machine.bus, BDF, MLX_PROFILE)
    driver = NetDriver(machine, nic, coalesce_threshold=4)
    driver.fill_rx()
    faults = []
    nic.on_io_page_fault = faults.append
    # Sabotage: unmap one posted buffer behind the driver's back — the
    # buggy-driver scenario the IOMMU exists to catch.
    _index, buffers = driver._rx_posted[0]
    dma_unmap(api, buffers[0].device_addr)
    assert not nic.deliver_frame(b"f" * 900)
    assert len(faults) == 1
    assert nic.stats.io_page_faults == 1
    assert isinstance(faults[0], IoPageFault)


def test_nic_iopf_propagates_without_handler():
    machine = Machine(Mode.STRICT)
    api = machine.dma_api(BDF)
    nic = SimulatedNic(machine.bus, BDF, MLX_PROFILE)
    driver = NetDriver(machine, nic, coalesce_threshold=4)
    driver.fill_rx()
    _index, buffers = driver._rx_posted[0]
    dma_unmap(api, buffers[0].device_addr)
    with pytest.raises(IoPageFault):
        nic.deliver_frame(b"f" * 900)


# -- NVMe driver -------------------------------------------------------------------


@pytest.mark.parametrize("mode", [Mode.NONE, Mode.STRICT, Mode.DEFER_PLUS, Mode.RIOMMU])
def test_nvme_driver_roundtrip(mode):
    machine = Machine(mode)
    controller = NvmeController(machine.bus, BDF)
    driver = NvmeDriver(machine, controller)
    driver.write(3, b"hello nvme")
    assert driver.read(3)[:10] == b"hello nvme"


def test_nvme_driver_batching_amortizes_invalidations():
    machine = Machine(Mode.RIOMMU)
    controller = NvmeController(machine.bus, BDF)
    driver = NvmeDriver(machine, controller)
    for i in range(16):
        driver.submit_write(i, bytes([i]) * 32)
    driver.flush()
    rdrv = machine.dma_api(BDF).driver
    assert rdrv.invalidations == 1  # one end-of-burst inval for 16 commands
    for i in range(16):
        driver.submit_read(i, 1)
    reads = driver.flush()
    assert [r[:32] for r in reads] == [bytes([i]) * 32 for i in range(16)]
    assert rdrv.invalidations == 2


def test_nvme_driver_failure_raises():
    machine = Machine(Mode.NONE)
    controller = NvmeController(machine.bus, BDF, capacity_blocks=4)
    driver = NvmeDriver(machine, controller)
    driver.submit_write(10, b"beyond capacity")
    with pytest.raises(NvmeDriverError):
        driver.flush()


def test_nvme_driver_validation():
    machine = Machine(Mode.NONE)
    driver = NvmeDriver(machine, NvmeController(machine.bus, BDF))
    with pytest.raises(ValueError):
        driver.submit_write(0, b"")
    with pytest.raises(ValueError):
        driver.submit_read(0, 0)
    assert driver.flush() == []  # empty flush is a no-op


def test_nvme_driver_live_mappings_drained():
    machine = Machine(Mode.RIOMMU)
    controller = NvmeController(machine.bus, BDF)
    driver = NvmeDriver(machine, controller)
    for i in range(8):
        driver.submit_write(i, b"x" * NVME_BLOCK_BYTES)
    driver.flush()
    rdrv = machine.dma_api(BDF).driver
    # Only the two persistent SQ/CQ ring mappings remain live.
    assert rdrv.live_mappings() == 2


# -- pass-through backends --------------------------------------------------------------


def test_swpt_backend_identity_with_iotlb_traffic():
    mem = MemorySystem(size_bytes=1 << 24)
    iotlb = Iotlb(capacity=4)
    bus = DmaBus(mem, SwptBackend(iotlb))
    addr = mem.alloc_dma_buffer(4096)
    bus.dma_write(BDF, addr, b"identity")
    assert mem.ram.read(addr, 8) == b"identity"
    assert iotlb.stats.misses == 1
    bus.dma_read(BDF, addr, 8)
    assert iotlb.stats.hits == 1


def test_swpt_backend_misses_when_working_set_exceeds_capacity():
    mem = MemorySystem(size_bytes=1 << 24)
    iotlb = Iotlb(capacity=2)
    bus = DmaBus(mem, SwptBackend(iotlb))
    addrs = [mem.alloc_dma_buffer(4096) for _ in range(8)]
    for _ in range(3):
        for addr in addrs:
            bus.dma_read(BDF, addr, 16)
    assert iotlb.stats.hit_rate < 0.01  # thrashing, yet all reads worked


def test_hwpt_backend_is_identity():
    mem = MemorySystem(size_bytes=1 << 24)
    bus = DmaBus(mem, HwptBackend())
    addr = mem.alloc_dma_buffer(4096)
    bus.dma_write(BDF, addr, b"hw")
    assert mem.ram.read(addr, 2) == b"hw"


# -- cost-model overrides --------------------------------------------------------------------


def test_cost_override_replaces_constant():
    model = CostModel(Mode.STRICT, overrides={Component.IOVA_ALLOC: 10_000.0})
    assert model.iova_alloc(0, False) == 10_000.0
    assert model.iova_find(0) == 249.0  # others untouched


def test_cost_override_composes_with_scale():
    model = CostModel(
        Mode.STRICT, scale=0.5, overrides={Component.IOVA_ALLOC: 10_000.0}
    )
    assert model.iova_alloc(0, False) == 5_000.0


def test_machine_passes_overrides_through():
    machine = Machine(
        Mode.STRICT, cost_overrides={Component.IOVA_ALLOC: 20_000.0}
    )
    api = machine.dma_api(BDF)
    phys = machine.mem.alloc_dma_buffer(4096)
    dma_map(api, phys, 100, DmaDirection.FROM_DEVICE)
    assert api.account.cycles[Component.IOVA_ALLOC] == 20_000.0
