"""Experiment E7 — §5.3: when the IOTLB miss penalty matters.

The paper sets up user-level I/O (ibverbs: raw Ethernet, polling, no
TCP/IP or interrupts) and transmits from (1) a large pool of
pre-mapped buffers picked at random — so the IOVA is almost never in
the IOTLB — versus (2) one buffer — so the IOTLB always hits.  The
latency difference is the IOTLB miss cost: ~1,532 cycles / ~0.5 us,
i.e. roughly four dependent memory references for the radix walk.

We run both experiments functionally against the real IOTLB and radix
tables, then convert the measured *walk levels* into cycles with a
per-level DRAM reference cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.analysis.report import format_table
from repro.config import RunConfig
from repro.devices.dma import DmaBus, IommuBackend
from repro.dma import DmaDirection, MapRequest
from repro.iommu.driver import BaselineIommuDriver
from repro.iommu.hardware import Iommu
from repro.memory.physical import MemorySystem
from repro.modes import Mode
from repro.perf.calibration import CLOCK_HZ, IOTLB_MISS_CYCLES

#: One uncached DRAM reference during a table walk.  Four dependent
#: references per walk land on the paper's measured 1,532-cycle miss.
DRAM_REF_CYCLES = IOTLB_MISS_CYCLES / 4.0


@dataclass
class MissPenaltyResult:
    """Hit rates and derived latency for both experiments."""

    pool_size: int
    iotlb_entries: int
    sends: int
    pool_hit_rate: float
    single_hit_rate: float
    pool_walk_levels_per_send: float
    single_walk_levels_per_send: float

    @property
    def miss_penalty_cycles(self) -> float:
        """Extra cycles per send caused by IOTLB misses (pool vs single)."""
        return (
            self.pool_walk_levels_per_send - self.single_walk_levels_per_send
        ) * DRAM_REF_CYCLES

    @property
    def miss_penalty_us(self) -> float:
        """The same penalty in microseconds at the testbed clock."""
        return self.miss_penalty_cycles / CLOCK_HZ * 1e6

    def render(self) -> str:
        """Tabulate the experiment against the paper's measurement."""
        rows: List[List[object]] = [
            ["random pool", self.pool_size, f"{self.pool_hit_rate:.3f}",
             f"{self.pool_walk_levels_per_send:.2f}"],
            ["single buffer", 1, f"{self.single_hit_rate:.3f}",
             f"{self.single_walk_levels_per_send:.2f}"],
        ]
        table = format_table(
            ["experiment", "buffers", "IOTLB hit rate", "walk levels/send"],
            rows,
            title="Section 5.3: IOTLB miss penalty (user-level I/O)",
        )
        return (
            f"{table}\n"
            f"miss penalty: {self.miss_penalty_cycles:.0f} cycles "
            f"= {self.miss_penalty_us:.2f} us "
            f"(paper: {IOTLB_MISS_CYCLES:.0f} cycles = 0.5 us)"
        )


def _run_experiment(
    pool_size: int, sends: int, iotlb_entries: int, seed: int, build: str
):
    """Map ``pool_size`` buffers once, then DMA-read them at random."""
    mem = MemorySystem(columnar=build == "columnar")
    iommu = Iommu(mem, iotlb_capacity=iotlb_entries)
    iommu.coherency.coherent = True  # §5.3 does no unmaps; coherency moot
    driver = BaselineIommuDriver(mem, iommu, bdf=0x0300, mode=Mode.STRICT_PLUS)
    bus = DmaBus(mem, IommuBackend(iommu))
    rng = random.Random(seed)

    iovas = []
    for _ in range(pool_size):
        phys = mem.alloc_dma_buffer(2048)
        iovas.append(
            driver.map_request(
                MapRequest(
                    phys_addr=phys, size=2048, direction=DmaDirection.TO_DEVICE
                )
            ).device_addr
        )

    iommu.iotlb.stats.reset()
    iommu.stats.reset()
    for _ in range(sends):
        bus.dma_read(driver.bdf, rng.choice(iovas), 1024)
    hit_rate = iommu.iotlb.stats.hit_rate
    walk_levels = iommu.stats.walk_levels / sends
    return hit_rate, walk_levels


def run_miss_penalty(
    pool_size: int = 512,
    sends: int = 4000,
    iotlb_entries: int = 64,
    seed: int = 42,
) -> MissPenaltyResult:
    """Run both §5.3 experiments and derive the miss penalty."""
    build = RunConfig.from_env().datapath
    pool_hit, pool_levels = _run_experiment(
        pool_size, sends, iotlb_entries, seed, build
    )
    single_hit, single_levels = _run_experiment(1, sends, iotlb_entries, seed, build)
    return MissPenaltyResult(
        pool_size=pool_size,
        iotlb_entries=iotlb_entries,
        sends=sends,
        pool_hit_rate=pool_hit,
        single_hit_rate=single_hit,
        pool_walk_levels_per_send=pool_levels,
        single_walk_levels_per_send=single_levels,
    )
