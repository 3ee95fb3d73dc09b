"""Prefetcher evaluation harness: the §5.4 comparison.

Replays a DMA trace through each prefetcher (in the paper's baseline
and "store-invalidated-addresses" variants, at several history sizes)
and through the rIOTLB itself, producing the bottom-line the paper
reports: the baseline variants are ineffective, Recency and Markov
predict most accesses only once their history outgrows the ring, the
Distance prefetcher stays ineffective, and the rIOTLB needs two entries
per ring with always-correct "predictions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.config import DEFAULT_BUILD
from repro.prefetch.base import Prefetcher, PrefetchSimulator, PrefetchStats
from repro.prefetch.distance import DistancePrefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.prefetch.trace import DmaTrace, EventKind


@dataclass
class PrefetcherOutcome:
    """One prefetcher configuration's replay outcome."""

    name: str
    variant: str  # "baseline" or "modified"
    history_capacity: int
    stats: PrefetchStats

    @property
    def hit_rate(self) -> float:
        """TLB+prefetch hit rate on the trace."""
        return self.stats.hit_rate


PREFETCHER_FACTORIES: Dict[str, Callable[[int], Prefetcher]] = {
    "markov": lambda capacity: MarkovPrefetcher(capacity=capacity),
    "recency": lambda capacity: RecencyPrefetcher(capacity=capacity),
    "distance": lambda capacity: DistancePrefetcher(capacity=capacity),
}


def evaluate_prefetcher(
    name: str,
    trace: DmaTrace,
    history_capacity: int,
    modified: bool,
    tlb_entries: int = 32,
) -> PrefetcherOutcome:
    """Replay ``trace`` through one prefetcher configuration."""
    prefetcher = PREFETCHER_FACTORIES[name](history_capacity)
    simulator = PrefetchSimulator(
        prefetcher,
        tlb_entries=tlb_entries,
        store_invalidated=modified,
        check_mapped=True,
    )
    stats = simulator.run(trace)
    return PrefetcherOutcome(
        name=name,
        variant="modified" if modified else "baseline",
        history_capacity=history_capacity,
        stats=stats,
    )


def evaluate_matrix(
    trace: DmaTrace,
    history_capacities: Sequence[int],
    names: Sequence[str] = ("markov", "recency", "distance"),
    tlb_entries: int = 32,
) -> List[PrefetcherOutcome]:
    """The full §5.4 sweep: every prefetcher, both variants, all sizes."""
    outcomes: List[PrefetcherOutcome] = []
    for name in names:
        for modified in (False, True):
            for capacity in history_capacities:
                outcomes.append(
                    evaluate_prefetcher(name, trace, capacity, modified, tlb_entries)
                )
    return outcomes


@dataclass
class RiotlbReplay:
    """The rIOTLB's behaviour on the same access stream."""

    accesses: int
    hits: int
    entries_per_ring: int = 2  # current + prefetched next

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served without a flat-table fetch."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


def replay_riotlb(trace: DmaTrace) -> RiotlbReplay:
    """Replay ACCESS events the way the rIOTLB would serve them.

    Only meaningful for *synthesized ring traces*, whose page numbers
    are ring-sequential by construction (which is exactly what rIOVAs
    are: ring indices).  The current-entry/next-entry pair serves every
    access except the first, and its "predictions" (the prefetched next
    rPTE) are always correct.  For traces recorded from the baseline
    simulation use :func:`measure_riotlb`, which runs the real rIOMMU.
    """
    accesses = [event.vpn for event in trace if event.kind is EventKind.ACCESS]
    hits = 0
    previous = None
    for vpn in accesses:
        if previous is not None and vpn in (previous, previous + 1):
            hits += 1
        previous = vpn
    return RiotlbReplay(accesses=len(accesses), hits=hits)


def measure_riotlb(
    packets: int = 500, datapath: str = DEFAULT_BUILD
) -> "RIotlbMeasurement":
    """Run the functional rIOMMU NIC simulation and report rIOTLB stats.

    This is the apples-to-apples counterpart of the prefetcher replays:
    the same Netperf-stream-like traffic, served by the real rIOTLB
    logic (one entry per ring plus the prefetched next rPTE).
    """
    from repro.devices.nic import SimulatedNic
    from repro.kernel.machine import Machine
    from repro.kernel.net_driver import NetDriver
    from repro.modes import Mode
    from repro.sim.netperf import NIC_BDF
    from repro.sim.setups import MLX_SETUP

    machine = Machine(Mode.RIOMMU, datapath=datapath)
    nic = SimulatedNic(machine.bus, NIC_BDF, MLX_SETUP.nic_profile)
    driver = NetDriver(machine, nic, coalesce_threshold=64)
    driver.fill_rx()
    payload = b"\xee" * 1500
    sent = 0
    while sent < packets:
        if driver.transmit(payload):
            sent += 1
            if sent % 32 == 0:
                driver.pump_tx()
        else:
            driver.pump_tx()
    driver.pump_tx()
    driver.flush_tx()
    assert machine.riommu is not None
    stats = machine.riommu.riotlb.stats
    return RIotlbMeasurement(
        translations=stats.translations,
        entry_hits=stats.hits,
        prefetch_hits=stats.prefetch_hits,
        walks=stats.walks,
        sync_walks=stats.sync_walks,
    )


@dataclass
class RIotlbMeasurement:
    """Functional rIOTLB counters from a real simulated run."""

    translations: int
    entry_hits: int
    prefetch_hits: int
    walks: int
    sync_walks: int

    @property
    def served_without_walk(self) -> float:
        """Fraction of translations served without fetching from DRAM."""
        if self.translations == 0:
            return 0.0
        return 1.0 - self.walks / self.translations
