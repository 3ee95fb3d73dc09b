"""Cross-module property tests on the DESIGN.md §6 invariant list."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dma import DmaDirection
from repro.kernel import Machine
from repro.memory import PAGE_SIZE
from repro.modes import ALL_MODES, Mode
from repro.perf import CLOCK_HZ, gbps_from_cycles
from tests.dma_helpers import dma_map, dma_unmap

BDF = 0x0300


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from([Mode.STRICT, Mode.DEFER_PLUS, Mode.RIOMMU]),
    offset=st.integers(min_value=0, max_value=PAGE_SIZE - 1),
    size=st.integers(min_value=1, max_value=3 * PAGE_SIZE),
    payload=st.binary(min_size=1, max_size=256),
)
def test_property_dma_write_lands_exactly(mode, offset, size, payload):
    """Bytes the device writes through any backend land exactly where the
    driver mapped them — for arbitrary offsets, sizes, and payloads."""
    if len(payload) > size:
        payload = payload[:size]
    machine = Machine(mode)
    api = machine.dma_api(BDF)
    ring = api.create_ring(8)
    buf = machine.mem.alloc_dma_buffer(offset + size)
    handle = dma_map(api, buf + offset, size, DmaDirection.FROM_DEVICE, ring=ring)
    machine.bus.dma_write(BDF, handle, payload)
    assert machine.mem.ram.read(buf + offset, len(payload)) == payload
    # Bytes before the mapping are untouched.
    if offset:
        assert machine.mem.ram.read(buf, min(offset, 16)) == bytes(min(offset, 16))
    dma_unmap(api, handle, end_of_burst=True)


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2 * PAGE_SIZE), min_size=1, max_size=12),
)
def test_property_mappings_never_alias(sizes):
    """Distinct live mappings never translate to overlapping physical
    ranges unless the driver mapped overlapping physical buffers."""
    machine = Machine(Mode.STRICT)
    api = machine.dma_api(BDF)
    spans = []
    for size in sizes:
        phys = machine.mem.alloc_dma_buffer(size)
        handle = dma_map(api, phys, size, DmaDirection.BIDIRECTIONAL)
        spans.append((handle, phys, size))
    for handle, phys, size in spans:
        # First and last byte translate back into this buffer.
        first = machine.bus.backend.translate_range(
            BDF, handle, 1, DmaDirection.TO_DEVICE
        )[0][0]
        last = machine.bus.backend.translate_range(
            BDF, handle + size - 1, 1, DmaDirection.TO_DEVICE
        )[0][0]
        assert phys <= first < phys + size
        assert phys <= last < phys + size


@settings(max_examples=30, deadline=None)
@given(
    c_low=st.floats(min_value=500, max_value=50_000),
    delta=st.floats(min_value=1, max_value=50_000),
)
def test_property_throughput_strictly_decreasing_in_cycles(c_low, delta):
    assert gbps_from_cycles(c_low, CLOCK_HZ) > gbps_from_cycles(c_low + delta, CLOCK_HZ)


@settings(max_examples=10, deadline=None)
@given(burst=st.integers(min_value=1, max_value=64))
def test_property_riommu_invals_equal_bursts(burst):
    """One rIOTLB invalidation per burst, no matter the burst size."""
    machine = Machine(Mode.RIOMMU)
    api = machine.dma_api(BDF)
    ring = api.create_ring(2 * burst + 2)
    phys = machine.mem.alloc_dma_buffer(4096)
    rounds = 3
    for _ in range(rounds):
        handles = [
            dma_map(api, phys, 64, DmaDirection.FROM_DEVICE, ring=ring)
            for _ in range(burst)
        ]
        for i, handle in enumerate(handles):
            dma_unmap(api, handle, end_of_burst=(i == burst - 1))
    assert api.driver.invalidations == rounds


def test_property_mode_safety_matrix():
    """The Mode metadata invariants the whole library leans on."""
    for mode in ALL_MODES:
        assert mode.is_riommu + mode.is_baseline_iommu + (mode is Mode.NONE) == 1
        if mode.deferred_invalidation:
            assert not mode.safe
        if mode.is_riommu:
            assert mode.safe and mode.protected
    assert not Mode.NONE.protected
