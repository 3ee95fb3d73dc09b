"""The repro.api facade, benchmark registry, and deprecation shims.

Run with ``-W error::DeprecationWarning`` semantics: the module-level
``filterwarnings`` marker turns any DeprecationWarning that is not
explicitly expected into a failure, proving the new request-protocol
paths (and everything the facade re-exports) are warning-clean while
the legacy positional map/unmap spellings still work and still warn.
"""

import pytest

from repro.api import (
    BENCHMARKS,
    DmaDirection,
    Machine,
    MapRequest,
    Mode,
    UnmapRequest,
    make_benchmark,
)
from repro.dma import MapResult, UnmapResult

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

BDF = 0x0300


def _api(mode=Mode.STRICT):
    return Machine(mode).dma_api(BDF)


# -- the request protocol is warning-clean ---------------------------------


def test_request_protocol_round_trip_baseline():
    machine = Machine(Mode.STRICT)
    api = machine.dma_api(BDF)
    phys = machine.mem.alloc_dma_buffer(4096)
    result = api.map_request(
        MapRequest(phys_addr=phys, size=1500, direction=DmaDirection.FROM_DEVICE)
    )
    assert isinstance(result, MapResult)
    unmapped = api.unmap_request(UnmapRequest(device_addr=result.device_addr))
    assert isinstance(unmapped, UnmapResult)
    assert unmapped.phys_addr == phys


def test_request_protocol_round_trip_riommu():
    machine = Machine(Mode.RIOMMU)
    api = machine.dma_api(BDF)
    ring = api.create_ring(8)
    phys = machine.mem.alloc_dma_buffer(4096)
    result = api.map_request(
        MapRequest(
            phys_addr=phys, size=1500,
            direction=DmaDirection.BIDIRECTIONAL, ring=ring,
        )
    )
    assert result.ring == ring
    unmapped = api.unmap_request(
        UnmapRequest(device_addr=result.device_addr, end_of_burst=True)
    )
    assert unmapped.phys_addr == phys


def test_map_request_is_keyword_only_and_frozen():
    with pytest.raises(TypeError):
        MapRequest(0x1000, 64, DmaDirection.TO_DEVICE)
    request = MapRequest(
        phys_addr=0x1000, size=64, direction=DmaDirection.TO_DEVICE
    )
    with pytest.raises(AttributeError):
        request.size = 128


def test_riommu_driver_requires_ring():
    api = _api(Mode.RIOMMU)
    with pytest.raises(ValueError):
        api.map_request(
            MapRequest(phys_addr=0x1000, size=64, direction=DmaDirection.TO_DEVICE)
        )


# -- legacy spellings still work, and warn ---------------------------------


def test_legacy_dma_api_map_unmap_warns_but_works():
    machine = Machine(Mode.STRICT)
    api = machine.dma_api(BDF)
    phys = machine.mem.alloc_dma_buffer(4096)
    with pytest.warns(DeprecationWarning, match="map_request"):
        handle = api.map(phys, 1500, DmaDirection.FROM_DEVICE)
    with pytest.warns(DeprecationWarning, match="unmap_request"):
        assert api.unmap(handle) == phys


def test_legacy_iommu_driver_map_unmap_warns():
    machine = Machine(Mode.STRICT)
    machine.dma_api(BDF)
    driver = machine.dma_api(BDF).driver
    phys = machine.mem.alloc_dma_buffer(4096)
    with pytest.warns(DeprecationWarning):
        iova = driver.map(phys, 1500, DmaDirection.FROM_DEVICE)
    with pytest.warns(DeprecationWarning):
        driver.unmap(iova)


def test_legacy_riommu_driver_map_unmap_warns():
    machine = Machine(Mode.RIOMMU)
    api = machine.dma_api(BDF)
    ring = api.create_ring(8)
    driver = api.driver
    phys = machine.mem.alloc_dma_buffer(4096)
    with pytest.warns(DeprecationWarning):
        iova = driver.map(ring, phys, 1500, DmaDirection.FROM_DEVICE)
    with pytest.warns(DeprecationWarning):
        driver.unmap(iova, end_of_burst=True)


# -- the facade ------------------------------------------------------------


def test_facade_exports_are_complete_and_importable():
    import repro.api as api_module

    missing = [n for n in api_module.__all__ if not hasattr(api_module, n)]
    assert missing == []
    for name in (
        "Setup", "Mode", "run_benchmark", "run_mode_sweep", "run_figure12",
        "Tracer", "TRACE", "MetricsRegistry", "RunResult", "EvaluationGrid",
        "MapRequest", "MapResult", "UnmapRequest", "UnmapResult",
    ):
        assert name in api_module.__all__, name


def test_facade_run_mode_sweep_smoke():
    # The module-level marker escalates DeprecationWarning, so this
    # doubles as the proof that the config= path is warning-clean.
    from repro.api import MLX_SETUP, RunConfig, run_mode_sweep

    results = run_mode_sweep(
        MLX_SETUP, "rr", modes=(Mode.NONE, Mode.RIOMMU),
        config=RunConfig(fast=True),
    )
    assert set(results) == {Mode.NONE, Mode.RIOMMU}
    assert all(r.cycles_per_packet > 0 for r in results.values())


# -- the benchmark registry ------------------------------------------------


def test_registry_contains_figure12_benchmarks_in_order():
    from repro.sim.runner import BENCHMARK_NAMES

    # The figure-12 grid is exactly the paper's five workloads, in
    # figure order; the registry may carry extra simulator-scaling
    # benchmarks (mstream) flagged out of the grid.
    assert BENCHMARK_NAMES == (
        "stream", "rr", "apache 1M", "apache 1K", "memcached"
    )
    assert tuple(n for n, s in BENCHMARKS.items() if s.figure12) == BENCHMARK_NAMES
    assert "mstream" in BENCHMARKS
    assert BENCHMARKS["mstream"].figure12 is False
    for spec in BENCHMARKS.values():
        assert spec.description


def test_make_benchmark_by_name_and_fast_flag():
    full = make_benchmark("stream")
    fast = make_benchmark("stream", fast=True)
    assert fast.packets < full.packets


def test_make_benchmark_unknown_name_lists_known():
    with pytest.raises(KeyError) as excinfo:
        make_benchmark("specint")
    message = str(excinfo.value)
    assert "specint" in message
    for name in BENCHMARKS:
        assert name in message


def test_register_benchmark_round_trip():
    from repro.sim.registry import BenchmarkSpec, register_benchmark

    spec = BenchmarkSpec(
        name="noop-test", factory=lambda fast: object(), description="test"
    )
    register_benchmark(spec)
    try:
        assert make_benchmark("noop-test") is not None
    finally:
        del BENCHMARKS["noop-test"]
