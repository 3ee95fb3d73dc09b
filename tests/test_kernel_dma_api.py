"""Unit tests for the DMA API, machine wiring and interrupt coalescing."""

import pytest

from repro.dma import DmaDirection
from repro.faults import IoPageFault
from repro.kernel import (
    BaselineDmaApi,
    IdentityDmaApi,
    InterruptCoalescer,
    Machine,
    RIommuDmaApi,
)
from repro.modes import ALL_MODES, Mode
from tests.dma_helpers import dma_map, dma_unmap

BDF = 0x0300


# -- Machine construction -----------------------------------------------------


@pytest.mark.parametrize("mode", ALL_MODES)
def test_machine_builds_every_mode(mode):
    machine = Machine(mode)
    api = machine.dma_api(BDF)
    if mode is Mode.NONE:
        assert isinstance(api, IdentityDmaApi)
        assert machine.iommu is None and machine.riommu is None
    elif mode.is_baseline_iommu:
        assert isinstance(api, BaselineDmaApi)
        assert machine.iommu is not None
    else:
        assert isinstance(api, RIommuDmaApi)
        assert machine.riommu is not None


def test_machine_caches_api_per_bdf():
    machine = Machine(Mode.STRICT)
    assert machine.dma_api(BDF) is machine.dma_api(BDF)
    assert machine.dma_api(BDF) is not machine.dma_api(BDF + 1)


def test_machine_coherency_matches_mode():
    assert Machine(Mode.RIOMMU).coherency.coherent
    assert not Machine(Mode.RIOMMU_NC).coherency.coherent
    assert not Machine(Mode.STRICT).coherency.coherent  # testbed walk incoherent


def test_machine_total_overhead_none_is_zero():
    machine = Machine(Mode.NONE)
    api = machine.dma_api(BDF)
    addr = machine.mem.alloc_dma_buffer(4096)
    dma_map(api, addr, 100, DmaDirection.FROM_DEVICE)
    assert machine.total_overhead_cycles() == 0


# -- DMA API semantics ----------------------------------------------------------


def test_identity_api_returns_phys():
    machine = Machine(Mode.NONE)
    api = machine.dma_api(BDF)
    addr = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api, addr, 100, DmaDirection.FROM_DEVICE)
    assert handle == addr
    assert dma_unmap(api, handle) == addr
    assert api.create_ring(8) is None


def test_identity_api_rejects_bad_size():
    api = IdentityDmaApi()
    with pytest.raises(ValueError):
        dma_map(api, 0x1000, 0, DmaDirection.FROM_DEVICE)


@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.DEFER_PLUS])
def test_baseline_api_roundtrip(mode):
    machine = Machine(mode)
    api = machine.dma_api(BDF)
    phys = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api, phys, 1000, DmaDirection.BIDIRECTIONAL)
    assert machine.bus.dma_read(BDF, handle, 4) == bytes(4)
    assert dma_unmap(api, handle) == phys
    assert api.overhead_cycles > 0


def test_riommu_api_requires_ring():
    machine = Machine(Mode.RIOMMU)
    api = machine.dma_api(BDF)
    phys = machine.mem.alloc_dma_buffer(4096)
    with pytest.raises(ValueError):
        dma_map(api, phys, 100, DmaDirection.FROM_DEVICE)


def test_riommu_api_roundtrip():
    machine = Machine(Mode.RIOMMU)
    api = machine.dma_api(BDF)
    rid = api.create_ring(8)
    phys = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api, phys, 256, DmaDirection.BIDIRECTIONAL, ring=rid)
    machine.bus.dma_write(BDF, handle, b"through flat tables")
    assert machine.mem.ram.read(phys, 19) == b"through flat tables"
    assert dma_unmap(api, handle, end_of_burst=True) == phys
    with pytest.raises(IoPageFault):
        machine.bus.dma_read(BDF, handle, 4)


def test_riommu_api_unmap_normalises_offset():
    machine = Machine(Mode.RIOMMU)
    api = machine.dma_api(BDF)
    rid = api.create_ring(8)
    phys = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api, phys, 256, DmaDirection.FROM_DEVICE, ring=rid)
    assert dma_unmap(api, handle + 37, end_of_burst=True) == phys  # offset ignored


def test_machine_shutdown():
    machine = Machine(Mode.DEFER)
    api = machine.dma_api(BDF)
    phys = machine.mem.alloc_dma_buffer(4096)
    handle = dma_map(api, phys, 100, DmaDirection.FROM_DEVICE)
    dma_unmap(api, handle)
    machine.shutdown()
    assert machine.total_overhead_cycles() == 0  # APIs dropped


# -- interrupt coalescing -----------------------------------------------------------


def test_coalescer_fires_at_threshold():
    bursts = []
    coalescer = InterruptCoalescer(bursts.append, threshold=3)
    for i in range(7):
        coalescer.completion(i)
    assert bursts == [[0, 1, 2], [3, 4, 5]]
    assert coalescer.pending == 1


def test_coalescer_flush_delivers_partial():
    bursts = []
    coalescer = InterruptCoalescer(bursts.append, threshold=100)
    coalescer.completion("a")
    coalescer.flush()
    assert bursts == [["a"]]
    coalescer.flush()  # empty flush is a no-op
    assert bursts == [["a"]]


def test_coalescer_stats():
    coalescer = InterruptCoalescer(lambda burst: None, threshold=2)
    for i in range(5):
        coalescer.completion(i)
    coalescer.flush()
    assert coalescer.stats.interrupts == 3
    assert coalescer.stats.completions == 5
    assert coalescer.stats.burst_lengths == [2, 2, 1]
    assert coalescer.stats.average_burst == pytest.approx(5 / 3)


def test_coalescer_rejects_bad_threshold():
    with pytest.raises(ValueError):
        InterruptCoalescer(lambda burst: None, threshold=0)
