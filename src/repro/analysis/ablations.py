"""Ablation studies for the design choices DESIGN.md calls out.

Four knobs, each isolating one piece of the design:

* **burst length** — rIOMMU amortizes one rIOTLB invalidation per
  completion burst; sweeping the interrupt-coalescing threshold shows
  where the amortization saturates (the paper's ~200-packet bursts sit
  comfortably on the flat part of the curve).
* **deferred flush threshold** — Linux's batch size of 250 trades the
  vulnerability-window length against amortized invalidation cost.
* **rIOTLB prefetch** — the paper claims the design "works just as well
  without" the prefetched next-rPTE (§4); with prefetch off, every ring
  advance becomes a flat-table DRAM fetch but nothing faults.
* **pathological-allocator scaling** — the strict/defer IOVA-alloc
  constants were measured under Netperf; scaling them probes how the
  request-server ratios (Apache 1K, Memcached) depend on how bad the
  pathology gets (cf. the deviation note in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dma import DmaDirection, MapRequest, UnmapRequest
from repro.analysis.report import format_table
from repro.devices.nic import SimulatedNic
from repro.kernel.machine import Machine
from repro.kernel.net_driver import NetDriver
from repro.modes import Mode
from repro.perf.costs import TABLE1_CYCLES
from repro.perf.cycles import Component
from repro.perf.model import gbps_from_cycles, throughput_with_line_rate
from repro.sim.netperf import NIC_BDF, build_machine
from repro.sim.memcached import MemcachedBench
from repro.sim.parallel import parallel_map, resolve_jobs
from repro.sim.scheduler import run_events
from repro.sim.setups import MLX_SETUP

# Every sweep below accepts ``jobs``: points are independent simulations,
# so they fan out through repro.sim.parallel.parallel_map.  The point
# workers are module-level functions taking plain-data tuples so they
# pickle into worker processes; point order (and thus rendered output)
# is preserved regardless of worker count.


# -- 1. burst-length sweep ------------------------------------------------


@dataclass
class BurstSweepResult:
    """Cycles/packet and Gbps of riommu as a function of burst length."""

    points: List[Tuple[int, float, float]]  # (burst, C, gbps)

    def render(self) -> str:
        rows = [
            [burst, f"{cycles:.0f}", f"{gbps:.2f}"]
            for burst, cycles, gbps in self.points
        ]
        return format_table(
            ["burst length", "cycles/packet", "Gbps"],
            rows,
            title="Ablation: rIOMMU invalidation amortization vs burst length "
            "(mlx stream)",
        )

    def gbps_at(self, burst: int) -> float:
        for b, _c, gbps in self.points:
            if b == burst:
                return gbps
        raise KeyError(burst)


def _burst_point(args: Tuple[int, int, int]) -> Tuple[int, float, float]:
    """One burst-length sweep point: (burst, packets, warmup) -> row."""
    burst, packets, warmup = args
    machine = build_machine(MLX_SETUP, Mode.RIOMMU)
    nic = SimulatedNic(machine.bus, NIC_BDF, MLX_SETUP.nic_profile)
    driver = NetDriver(machine, nic, coalesce_threshold=burst)
    driver.fill_rx()
    payload = b"\x55" * 1500

    def send(count: int) -> None:
        sent = 0
        while sent < count:
            if driver.transmit(payload):
                driver.account.charge(Component.PROCESSING, MLX_SETUP.c_none_stream)
                sent += 1
                if sent % 32 == 0:
                    driver.pump_tx()
            else:
                driver.pump_tx()
        driver.pump_tx()
        driver.flush_tx()

    send(warmup)
    driver.account.reset()
    base = driver.stats.packets_transmitted
    send(packets)
    measured = driver.stats.packets_transmitted - base
    cycles = driver.account.total() / measured
    perf = throughput_with_line_rate(
        cycles, MLX_SETUP.clock_hz, MLX_SETUP.nic_profile.line_rate_gbps
    )
    return (burst, cycles, perf.gbps)


def sweep_burst_length(
    bursts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 200, 400),
    packets: int = 300,
    warmup: int = 60,
    jobs: Optional[int] = None,
) -> BurstSweepResult:
    """Run mlx/stream under riommu with varying coalescing thresholds."""
    points = parallel_map(
        _burst_point, [(b, packets, warmup) for b in bursts], resolve_jobs(jobs)
    )
    return BurstSweepResult(points=points)


# -- 2. deferred flush-threshold sweep ---------------------------------------------


@dataclass
class DeferThresholdResult:
    """Defer-mode cost vs window length."""

    points: List[Tuple[int, float, float]]  # (threshold, C, gbps)

    def render(self) -> str:
        rows = [
            [threshold, f"{cycles:.0f}", f"{gbps:.2f}"]
            for threshold, cycles, gbps in self.points
        ]
        return format_table(
            ["flush threshold (unmaps)", "cycles/packet", "Gbps"],
            rows,
            title="Ablation: deferred-mode batch size vs throughput "
            "(mlx stream; window length = exposure)",
        )


def _defer_point(args: Tuple[int, int, int]) -> Tuple[int, float, float]:
    """One defer-threshold sweep point: (threshold, packets, warmup) -> row."""
    threshold, packets, warmup = args
    machine = Machine(Mode.DEFER, flush_threshold=threshold)
    nic = SimulatedNic(machine.bus, NIC_BDF, MLX_SETUP.nic_profile)
    driver = NetDriver(machine, nic, coalesce_threshold=MLX_SETUP.stream_burst)
    driver.fill_rx()
    payload = b"\x66" * 1500
    sent = 0
    while sent < warmup + packets:
        if driver.transmit(payload):
            sent += 1
            if sent == warmup:
                driver.account.reset()
            if sent % 32 == 0:
                driver.pump_tx()
        else:
            driver.pump_tx()
    driver.pump_tx()
    driver.flush_tx()
    # Amortized true cost: the charged per-unmap bookkeeping plus one
    # 2,250-cycle global flush per `threshold` unmaps (2 unmaps/packet
    # on mlx), plus the per-packet stack work.
    extra_per_packet = 2 * 2250.0 / threshold
    cycles = driver.account.total() / packets + MLX_SETUP.c_none_stream + extra_per_packet
    gbps = min(
        gbps_from_cycles(cycles, MLX_SETUP.clock_hz),
        MLX_SETUP.nic_profile.line_rate_gbps,
    )
    return (threshold, cycles, gbps)


def sweep_defer_threshold(
    thresholds: Sequence[int] = (1, 10, 50, 100, 250, 500),
    packets: int = 300,
    warmup: int = 60,
    jobs: Optional[int] = None,
) -> DeferThresholdResult:
    """Vary Linux's deferred batch size.

    The *functional* flush happens at each threshold; the per-unmap
    charge uses the paper's amortized constants, so the interesting
    functional output is how often the window closes — we also fold the
    MICRO-policy global-flush cost in to show the cost trend.
    """
    points = parallel_map(
        _defer_point, [(t, packets, warmup) for t in thresholds], resolve_jobs(jobs)
    )
    return DeferThresholdResult(points=points)


# -- 3. rIOTLB prefetch on/off -------------------------------------------------------


@dataclass
class PrefetchAblationResult:
    """Functional effect of disabling rprefetch."""

    with_prefetch_walk_fraction: float
    without_prefetch_walk_fraction: float
    with_prefetch_hits: int
    without_sync_walks: int

    def render(self) -> str:
        rows = [
            ["enabled", f"{self.with_prefetch_walk_fraction:.3f}", self.with_prefetch_hits],
            ["disabled", f"{self.without_prefetch_walk_fraction:.3f}", 0],
        ]
        return format_table(
            ["rprefetch", "DRAM-fetch fraction", "prefetch hits"],
            rows,
            title="Ablation: rIOTLB next-rPTE prefetch (mlx stream, functional)",
        )


def _prefetch_point(args: Tuple[bool, int]) -> Tuple[float, int, int]:
    """One prefetch ablation arm: (enabled, packets) -> stats triple."""
    enabled, packets = args
    machine = Machine(Mode.RIOMMU)
    assert machine.riommu is not None
    machine.riommu.prefetch_enabled = enabled
    nic = SimulatedNic(machine.bus, NIC_BDF, MLX_SETUP.nic_profile)
    driver = NetDriver(machine, nic, coalesce_threshold=64)
    driver.fill_rx()
    sent = 0
    payload = b"\x77" * 1500
    while sent < packets:
        if driver.transmit(payload):
            sent += 1
            if sent % 32 == 0:
                driver.pump_tx()
        else:
            driver.pump_tx()
    driver.pump_tx()
    driver.flush_tx()
    stats = machine.riommu.riotlb.stats
    walk_fraction = (stats.walks + stats.sync_walks) / max(stats.translations, 1)
    return (walk_fraction, stats.prefetch_hits, stats.sync_walks)


def ablate_prefetch(
    packets: int = 300, jobs: Optional[int] = None
) -> PrefetchAblationResult:
    """Run the same traffic with rprefetch enabled and disabled."""
    arms = parallel_map(
        _prefetch_point, [(True, packets), (False, packets)], resolve_jobs(jobs)
    )
    fractions: Dict[bool, Tuple[float, int, int]] = {True: arms[0], False: arms[1]}
    return PrefetchAblationResult(
        with_prefetch_walk_fraction=fractions[True][0],
        without_prefetch_walk_fraction=fractions[False][0],
        with_prefetch_hits=fractions[True][1],
        without_sync_walks=fractions[False][2],
    )


# -- 4. allocator-pathology sensitivity -----------------------------------------------


@dataclass
class PathologySensitivityResult:
    """Memcached riommu/strict ratio vs strict-alloc cost scaling."""

    points: List[Tuple[float, float]]  # (alloc scale, riommu/strict ratio)

    def render(self) -> str:
        rows = [
            [f"{scale:.1f}x", f"{ratio:.2f}"] for scale, ratio in self.points
        ]
        return format_table(
            ["strict iova-alloc cost", "memcached riommu/strict"],
            rows,
            title="Ablation: how the request-server gap depends on the "
            "allocator pathology's severity (paper measured 4.88)",
        )


def _pathology_point(args: Tuple[float, int]) -> Tuple[float, float]:
    """One pathology sweep point: (scale, requests) -> strict throughput."""
    scale, requests = args
    base_alloc = TABLE1_CYCLES[Mode.STRICT][Component.IOVA_ALLOC]
    scaled = MemcachedBench(
        requests=requests,
        warmup=20,
        machine_kwargs={"cost_overrides": {Component.IOVA_ALLOC: base_alloc * scale}},
    )
    strict = run_events(scaled, MLX_SETUP, Mode.STRICT).throughput_metric
    return (scale, strict)


def sweep_alloc_pathology(
    scales: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    requests: int = 120,
    jobs: Optional[int] = None,
) -> PathologySensitivityResult:
    """Scale strict's IOVA-alloc constant and re-measure Memcached.

    The paper's Memcached riommu/strict ratio is 4.88 against our 2.07
    at the Netperf-calibrated constant; the sweep shows the measured
    gap is reached when the pathology is ~5-8x worse than under
    Netperf — consistent with its linear-in-live-IOVAs behaviour under
    32-way-concurrent request traffic.
    """
    bench = MemcachedBench(requests=requests, warmup=20)
    riommu = run_events(bench, MLX_SETUP, Mode.RIOMMU).throughput_metric
    strict_points = parallel_map(
        _pathology_point, [(s, requests) for s in scales], resolve_jobs(jobs)
    )
    points = [(scale, riommu / strict) for scale, strict in strict_points]
    return PathologySensitivityResult(points=points)


# -- 5. ring sizing: N vs L (paper §4, Applicability and Limitations) -------


@dataclass
class RingSizingResult:
    """Back-pressure frequency as the flat table shrinks towards L."""

    live_window: int
    burst: int
    points: List[Tuple[int, float]]  # (ring entries N, backpressure/packet)

    def render(self) -> str:
        rows = [
            [entries, f"{entries / self.live_window:.2f}", f"{rate:.3f}"]
            for entries, rate in self.points
        ]
        return format_table(
            ["ring entries (N)", "N / L", "back-pressure per packet"],
            rows,
            title=f"Ablation: rRING sizing with L={self.live_window} live IOVAs, "
            f"bursty completions of {self.burst} (overflow is legal "
            "back-pressure, paper section 4)",
        )


def _ring_point(args: Tuple[int, int, int, int]) -> Tuple[int, float]:
    """One ring-sizing point: (entries, live_window, burst, packets) -> row."""
    from repro.core.driver import RingOverflowError

    entries, live_window, burst, packets = args
    machine = Machine(Mode.RIOMMU)
    api = machine.dma_api(0x0300)
    ring = api.create_ring(entries)
    phys = machine.mem.alloc_dma_buffer(4096)
    in_flight: List[int] = []
    backpressure = 0
    mapped = 0
    while mapped < packets:
        if len(in_flight) >= live_window:
            for i in range(min(burst, len(in_flight))):
                api.unmap_request(
                    UnmapRequest(
                        device_addr=in_flight.pop(0),
                        end_of_burst=(i == burst - 1 or not in_flight),
                    )
                )
        try:
            in_flight.append(
                api.map_request(
                    MapRequest(
                        phys_addr=phys,
                        size=1500,
                        direction=DmaDirection.FROM_DEVICE,
                        ring=ring,
                    )
                ).device_addr
            )
            mapped += 1
        except RingOverflowError:
            backpressure += 1
            for i in range(min(burst, len(in_flight))):
                api.unmap_request(
                    UnmapRequest(
                        device_addr=in_flight.pop(0),
                        end_of_burst=(i == burst - 1 or not in_flight),
                    )
                )
    return (entries, backpressure / packets)


def sweep_ring_sizing(
    live_window: int = 64,
    burst: int = 16,
    packets: int = 600,
    ring_sizes: Sequence[int] = (64, 72, 80, 96, 128),
    jobs: Optional[int] = None,
) -> RingSizingResult:
    """Run bursty map/unmap churn against shrinking flat tables.

    The driver keeps up to ``live_window`` mappings in flight and
    retires them in bursts of ``burst``; occupancy therefore swings
    between L-burst and L, and tables sized inside that swing push back
    (RingOverflowError) until completions free entries — exactly the
    "driver should slow down" behaviour the paper describes.
    """
    points = parallel_map(
        _ring_point,
        [(entries, live_window, burst, packets) for entries in ring_sizes],
        resolve_jobs(jobs),
    )
    return RingSizingResult(live_window=live_window, burst=burst, points=points)


# -- 6. IOTLB capacity sensitivity of the §5.3 miss experiment ----------------


@dataclass
class IotlbCapacityResult:
    """Miss penalty of the §5.3 random-pool experiment vs IOTLB size."""

    pool_size: int
    points: List[Tuple[int, float, float]]  # (capacity, hit rate, penalty cycles)

    def render(self) -> str:
        rows = [
            [capacity, f"{hit_rate:.3f}", f"{penalty:.0f}"]
            for capacity, hit_rate, penalty in self.points
        ]
        return format_table(
            ["IOTLB entries", "hit rate", "penalty cycles/send"],
            rows,
            title=f"Ablation: section 5.3 miss penalty vs IOTLB capacity "
            f"(random pool of {self.pool_size} buffers)",
        )


def _iotlb_point(args: Tuple[int, int, int]) -> Tuple[int, float, float]:
    """One IOTLB-capacity point: (capacity, pool_size, sends) -> row."""
    from repro.analysis.miss_penalty import DRAM_REF_CYCLES, _run_experiment

    capacity, pool_size, sends = args
    hit_rate, walk_levels = _run_experiment(pool_size, sends, capacity, seed=21)
    return (capacity, hit_rate, walk_levels * DRAM_REF_CYCLES)


def sweep_iotlb_capacity(
    pool_size: int = 512,
    sends: int = 2500,
    capacities: Sequence[int] = (16, 64, 256, 512, 1024),
    jobs: Optional[int] = None,
) -> IotlbCapacityResult:
    """Re-run the random-pool experiment across IOTLB sizes."""
    points = parallel_map(
        _iotlb_point,
        [(capacity, pool_size, sends) for capacity in capacities],
        resolve_jobs(jobs),
    )
    return IotlbCapacityResult(pool_size=pool_size, points=points)
