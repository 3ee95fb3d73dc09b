"""Simulator micro-benchmarks: how fast is the simulation itself?

Unlike the reproduction benches (which regenerate paper artefacts),
these time the *simulator*: map+unmap pairs per second under each
backend, and device-path DMA throughput.  Useful for tracking
performance regressions of the library.
"""

import pytest

from repro.dma import DmaDirection, MapRequest, UnmapRequest
from repro.kernel import Machine
from repro.modes import Mode

BDF = 0x0300


@pytest.mark.benchmark(group="simulator-ops")
@pytest.mark.parametrize(
    "mode", [Mode.NONE, Mode.STRICT, Mode.STRICT_PLUS, Mode.DEFER_PLUS, Mode.RIOMMU]
)
def test_map_unmap_pair_rate(benchmark, mode):
    machine = Machine(mode)
    api = machine.dma_api(BDF)
    ring = api.create_ring(64)
    phys = machine.mem.alloc_dma_buffer(4096)

    map_req = MapRequest(
        phys_addr=phys, size=1500, direction=DmaDirection.FROM_DEVICE, ring=ring
    )

    def pair():
        handle = api.map_request(map_req).device_addr
        api.unmap_request(UnmapRequest(device_addr=handle, end_of_burst=True))

    benchmark(pair)
    assert api.driver.live_mappings() == 0 if mode is not Mode.NONE else True


@pytest.mark.benchmark(group="simulator-dma")
@pytest.mark.parametrize("mode", [Mode.NONE, Mode.STRICT, Mode.RIOMMU])
def test_translated_dma_write_rate(benchmark, mode):
    machine = Machine(mode)
    api = machine.dma_api(BDF)
    ring = api.create_ring(8)
    phys = machine.mem.alloc_dma_buffer(4096)
    handle = api.map_request(
        MapRequest(
            phys_addr=phys, size=4096, direction=DmaDirection.BIDIRECTIONAL, ring=ring
        )
    ).device_addr
    payload = b"\x5a" * 1500

    benchmark(machine.bus.dma_write, BDF, handle, payload)
    assert machine.mem.ram.read(phys, 4) == payload[:4]
