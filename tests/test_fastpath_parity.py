"""The hot-path fast paths must be observably invisible.

The columnar build adds single-page memory fast paths and the
per-burst translation memo; the scalar build has neither.  The build is
fixed when a machine (or a bare memory) is constructed, so these tests
run a scalar and a columnar copy side by side and check that simulation
results, memory semantics, and error behaviour are bit-for-bit
unchanged — the fast paths may only change wall-clock time, never a
modelled number.
"""

import pytest

from repro.config import RunConfig
from repro.kernel.machine import Machine
from repro.memory import MemorySystem, PAGE_SIZE, PhysicalMemory
from repro.modes import Mode
from repro.sim.runner import run_benchmark, run_mode_sweep
from repro.sim.setups import MLX_SETUP


def _cell(mode=Mode.STRICT, benchmark="stream", build="columnar"):
    config = RunConfig(fast=True, datapath=build)
    return run_benchmark(MLX_SETUP, mode, benchmark, config=config).to_dict()


def test_fastpath_flag_defaults_on():
    machine = Machine(Mode.STRICT)
    assert machine.mem.columnar and machine.mem.ram.columnar
    assert PhysicalMemory().columnar
    scalar = Machine(Mode.STRICT, datapath="scalar")
    assert not scalar.mem.columnar and not scalar.mem.ram.columnar


@pytest.mark.parametrize("bench", ["stream", "rr", "memcached"])
@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.RIOMMU, Mode.DEFER])
def test_cell_results_identical_without_fastpath(bench, mode):
    """Scalar-build RunResults equal the columnar ones for every field."""
    slow = _cell(mode=mode, benchmark=bench, build="scalar")
    fast = _cell(mode=mode, benchmark=bench, build="columnar")
    assert slow == fast


def test_mode_sweep_identical_without_fastpath():
    """A whole Figure 12 panel is unchanged, including mode ordering."""
    modes = (Mode.NONE, Mode.STRICT, Mode.RIOMMU)
    slow, fast = (
        run_mode_sweep(
            MLX_SETUP, "rr", modes=modes, config=RunConfig(fast=True, datapath=build)
        )
        for build in ("scalar", "columnar")
    )
    assert list(slow) == list(fast)
    for mode in slow:
        assert slow[mode].to_dict() == fast[mode].to_dict()


def test_memory_roundtrip_identical_without_fastpath():
    """Byte-level memory semantics are the slow path's, exactly."""
    images = []
    for columnar in (False, True):
        mem = PhysicalMemory(size_bytes=1 << 20, columnar=columnar)
        mem.write(PAGE_SIZE - 4, b"spanning!")  # crosses a page: slow path
        mem.write(0x2000, b"single page")  # the fast path when columnar
        assert mem.read(PAGE_SIZE - 4, 9) == b"spanning!"
        assert mem.read(0x2000, 11) == b"single page"
        mem.write_u64(0x3000, 0x1122334455667788)
        assert mem.read_u64(0x3000) == 0x1122334455667788
        images.append({f: bytes(mem._frames[f]) for f in sorted(mem._frames)})
    assert images[0] == images[1]


def test_fastpath_rejects_same_inputs_as_slow_path():
    """Bad inputs raise the same exceptions in both builds.

    The fast-path guards deliberately fall through to ``_check_range``
    for anything unusual, so error types must match the slow path.
    """
    for columnar in (False, True):
        mem = PhysicalMemory(size_bytes=1 << 20, columnar=columnar)
        with pytest.raises(ValueError):
            mem.read(0, -1)
        with pytest.raises(ValueError):
            mem.write(mem.size_bytes - 2, b"toolong")
        with pytest.raises(ValueError):
            mem.read(-8, 4)
        with pytest.raises(TypeError):
            mem.read(1.5, 4)


def test_translation_memo_invalidated_by_detach():
    """Memo parity holds across attach/detach (epoch) invalidation.

    Runs the rr cell, whose driver attaches and detaches buffers
    constantly, under DEFER (deferred invalidation is the riskiest
    regime for a stale memo) in the memo-less scalar build and the
    memoised columnar build.
    """
    slow = _cell(mode=Mode.DEFER, benchmark="rr", build="scalar")
    fast = _cell(mode=Mode.DEFER, benchmark="rr", build="columnar")
    assert slow == fast


def test_memo_is_opt_in():
    """A raw DmaBus backend never memoises unless explicitly enabled.

    analysis/miss_penalty.py builds its own DmaBus and reasons about
    IOTLB hit/miss counters — the memo must not engage there.
    """
    mem = MemorySystem(size_bytes=1 << 22)
    from repro.devices.dma import DmaBus, IommuBackend
    from repro.iommu.hardware import Iommu

    iommu = Iommu(mem)
    backend = IommuBackend(iommu)
    assert backend.memo_enabled is False
    bus = DmaBus(mem, backend)
    assert backend.memo_enabled is False
    bus.enable_translation_memo()
    assert backend.memo_enabled is True
