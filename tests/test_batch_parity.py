"""The scatter-gather batched datapath must be observably invisible.

``repro.devices.dma`` gates the bulk translate/copy paths and
``repro.perf.cycles`` gates the staged (counter-based) charge
accumulator behind module-global ``BATCH_ENABLED`` flags (cleared
under ``REPRO_DATAPATH=scalar``).  These tests run identical
operation sequences with the flags on and off and assert that every
observable — returned bytes, physical memory contents, DMA/IOTLB/
translation statistics, cycle accounts (bit-for-bit), and faults,
including *where* a fault lands — is unchanged.  The batch paths may
only change wall-clock time, never a modelled number.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
import repro.devices.dma as dma_mod
import repro.perf.cycles as cycles_mod
from repro.devices.dma import DmaBus, IommuBackend
from repro.dma import DmaDirection
from repro.faults import IoPageFault, TranslationFault
from repro.iommu.driver import BaselineIommuDriver
from repro.iommu.hardware import Iommu
from repro.memory import MemorySystem, PAGE_SIZE
from repro.modes import Mode
from repro.sim.runner import run_benchmark
from repro.sim.setups import MLX_SETUP

BDF = 0x0300


def _set_batch(enabled: bool) -> None:
    dma_mod.BATCH_ENABLED = enabled
    cycles_mod.BATCH_ENABLED = enabled


@pytest.fixture(autouse=True, scope="module")
def restore_batch():
    """Restore the batch flags however a test leaves them.

    Module-scoped (not per-test) so hypothesis-driven tests can use it
    without tripping the function-scoped-fixture health check; every
    test here sets the flags explicitly before each arm anyway.
    """
    old = (dma_mod.BATCH_ENABLED, cycles_mod.BATCH_ENABLED)
    yield
    dma_mod.BATCH_ENABLED, cycles_mod.BATCH_ENABLED = old


def test_batch_flag_defaults_on():
    assert dma_mod.BATCH_ENABLED
    assert cycles_mod.BATCH_ENABLED


# -- randomised burst layouts -------------------------------------------------

#: buffer sizes spanning the interesting shapes: sub-page, exactly one
#: page, unaligned multi-page, and > 2 pages (so extents merge and split)
_buf_sizes = st.lists(
    st.integers(min_value=1, max_value=3 * PAGE_SIZE + 117), min_size=1, max_size=4
)
#: per-op (buffer selector, start fraction, length) — normalised modulo
#: the actual buffer inside the scenario so every draw is valid
_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=31),  # which buffer
        st.integers(min_value=0, max_value=1 << 16),  # start within buffer
        st.integers(min_value=1, max_value=2 * PAGE_SIZE),  # access length
        st.booleans(),  # write?
    ),
    min_size=1,
    max_size=6,
)


def _run_scenario(mode, buf_sizes, ops):
    """One driver + bus rig runs a burst; returns every observable."""
    mem = MemorySystem(size_bytes=1 << 24)
    iommu = Iommu(mem)
    driver = BaselineIommuDriver(mem, iommu, BDF, mode)
    bus = DmaBus(mem, IommuBackend(iommu))

    mapped = []  # (iova, phys, size)
    for i, size in enumerate(buf_sizes):
        phys = mem.alloc_dma_buffer(size)
        fill = bytes((i * 37 + j) & 0xFF for j in range(size))
        mem.ram.write(phys, fill)
        iova = driver.map(phys, size, DmaDirection.BIDIRECTIONAL)
        mapped.append((iova, phys, size))

    outcomes = []
    for which, start, length, is_write in ops:
        iova, phys, size = mapped[which % len(mapped)]
        start %= size
        length = min(length, size - start)
        if length <= 0:
            length = 1
        try:
            if is_write:
                data = bytes((start + j) & 0xFF for j in range(length))
                bus.dma_write(BDF, iova + start, data)
                outcomes.append(("write", mem.ram.read(phys + start, length)))
            else:
                outcomes.append(("read", bus.dma_read(BDF, iova + start, length)))
        except IoPageFault as fault:
            outcomes.append(("fault", type(fault).__name__, str(fault), fault.iova))

    # Unmap everything (exercises the staged unmap charges too).
    for i, (iova, _phys, _size) in enumerate(mapped):
        driver.unmap(iova, end_of_burst=(i == len(mapped) - 1))

    return {
        "outcomes": outcomes,
        "cycles": dict(driver.account.cycles),
        "events": dict(driver.account.events),
        "total": driver.account.total(),
        "bus": vars(bus.stats).copy(),
        "iotlb": vars(iommu.iotlb.stats).copy(),
        "translation": vars(iommu.stats).copy(),
        "coherency": {
            k: v for k, v in vars(iommu.coherency.stats).items()
        },
        "touched_frames": mem.ram.touched_frames(),
    }


@settings(max_examples=20, deadline=None)
@given(buf_sizes=_buf_sizes, ops=_ops)
def test_random_bursts_identical(buf_sizes, ops):
    """Random burst layouts (unaligned starts, multi-page spans) match.

    Bytes moved, physical memory touched, every statistic, and the
    cycle account must be bit-for-bit identical between the scalar and
    batched arms, under both a strict and a deferred driver.
    """
    for mode in (Mode.STRICT, Mode.DEFER):
        _set_batch(False)
        scalar = _run_scenario(mode, buf_sizes, ops)
        _set_batch(True)
        batched = _run_scenario(mode, buf_sizes, ops)
        assert scalar == batched


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=2 * PAGE_SIZE),
    overshoot=st.integers(min_value=1, max_value=PAGE_SIZE + 13),
    is_write=st.booleans(),
)
def test_fault_crossing_unmapped_hole_identical(size, overshoot, is_write):
    """An access running past the mapping faults identically in both arms.

    The first allocation sits at the *top* of the IOVA space (the
    allocator is top-down), so an access running past the last mapped
    page crosses into guaranteed-unmapped territory.  ``map`` maps whole
    pages, so the access length is padded out to the page boundary
    before the overshoot is added.  Both arms must raise the same fault
    type with the same message (which pins the faulting page) and leave
    memory untouched by the faulting access.
    """

    def run(enabled):
        _set_batch(enabled)
        mem = MemorySystem(size_bytes=1 << 24)
        iommu = Iommu(mem)
        driver = BaselineIommuDriver(mem, iommu, BDF, Mode.STRICT)
        bus = DmaBus(mem, IommuBackend(iommu))
        phys = mem.alloc_dma_buffer(size)
        mem.ram.write(phys, bytes(j & 0xFF for j in range(size)))
        iova = driver.map(phys, size, DmaDirection.BIDIRECTIONAL)
        # From iova to the end of the last *mapped page*, plus overshoot.
        mapped_end = ((iova + size - 1) // PAGE_SIZE + 1) * PAGE_SIZE
        length = mapped_end - iova + overshoot
        with pytest.raises(TranslationFault) as excinfo:
            if is_write:
                bus.dma_write(BDF, iova, b"\xa5" * length)
            else:
                bus.dma_read(BDF, iova, length)
        return {
            "message": str(excinfo.value),
            "iova": excinfo.value.iova,
            "memory": mem.ram.read(phys, size),
            "bus": vars(bus.stats).copy(),
            "iotlb": vars(iommu.iotlb.stats).copy(),
            "cycles": dict(driver.account.cycles),
        }

    assert run(False) == run(True)


def test_partial_scatter_before_fault_identical():
    """dma_write_sg: segments before a faulting segment land identically.

    Segment-level fault semantics are scalar: each part translates in
    full before its bytes move, so a fault in part N leaves parts
    0..N-1 written and N.. untouched — in both arms.
    """

    def run(enabled):
        _set_batch(enabled)
        mem = MemorySystem(size_bytes=1 << 24)
        iommu = Iommu(mem)
        driver = BaselineIommuDriver(mem, iommu, BDF, Mode.STRICT)
        bus = DmaBus(mem, IommuBackend(iommu))
        phys_a = mem.alloc_dma_buffer(PAGE_SIZE)
        phys_b = mem.alloc_dma_buffer(PAGE_SIZE)
        # Top-down allocator: iova_a is the topmost mapping, so running
        # off the end of *a* lands in guaranteed-unmapped space.
        iova_a = driver.map(phys_a, PAGE_SIZE, DmaDirection.FROM_DEVICE)
        iova_b = driver.map(phys_b, PAGE_SIZE, DmaDirection.FROM_DEVICE)
        parts = [
            (iova_b, b"\x11" * 100),
            (iova_a + PAGE_SIZE - 4, b"\x22" * 64),  # runs off the mapping
        ]
        with pytest.raises(TranslationFault) as excinfo:
            bus.dma_write_sg(BDF, parts)
        return {
            "message": str(excinfo.value),
            "b": mem.ram.read(phys_b, 100),
            "a": mem.ram.read(phys_a + PAGE_SIZE - 4, 4),
            "bus": vars(bus.stats).copy(),
        }

    scalar = run(False)
    batched = run(True)
    assert scalar == batched
    assert scalar["b"] == b"\x11" * 100  # first segment landed
    assert scalar["a"] == b"\x00" * 4  # faulting segment did not


# -- whole-simulation parity --------------------------------------------------


def _cell(mode, benchmark):
    return run_benchmark(
        MLX_SETUP, mode, benchmark, config=RunConfig(fast=True)).to_dict(
    )


@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.DEFER, Mode.RIOMMU])
@pytest.mark.parametrize("bench", ["stream", "rr"])
def test_cell_results_identical_without_batch(mode, bench):
    """Whole benchmark cells are identical with the batch paths off.

    Covers the staged cycle accounting in both drivers (baseline and
    rIOMMU), the SG device datapaths (NIC gather/scatter), and the
    per-packet averages the figures are built from.
    """
    _set_batch(False)
    scalar = _cell(mode, bench)
    _set_batch(True)
    batched = _cell(mode, bench)
    assert scalar == batched
