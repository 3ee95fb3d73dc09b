"""Experiment E8 — §5.4: comparing rIOTLB against classic TLB prefetchers.

Reproduces the paper's bottom line: Markov, Recency and Distance are
ineffective in their baseline form (IOVAs are invalidated right after
use, so there is no history to learn from); modified to remember
invalidated addresses, Markov and Recency predict most accesses — but
only once their history structure outgrows the ring — while Distance
stays ineffective; and the rIOTLB needs just two entries per ring with
always-correct "predictions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.report import format_table
from repro.config import RunConfig
from repro.prefetch.eval import (
    PrefetcherOutcome,
    RIotlbMeasurement,
    evaluate_matrix,
    measure_riotlb,
)
from repro.prefetch.trace import DmaTrace, record_netperf_trace


@dataclass
class PrefetcherStudyResult:
    """Outcomes for every prefetcher configuration plus the rIOTLB."""

    ring_entries: int
    outcomes: List[PrefetcherOutcome]
    riotlb: RIotlbMeasurement

    def best(self, name: str, variant: str) -> PrefetcherOutcome:
        """Best-hit-rate configuration of one prefetcher/variant."""
        candidates = [
            o for o in self.outcomes if o.name == name and o.variant == variant
        ]
        return max(candidates, key=lambda o: o.hit_rate)

    def render(self) -> str:
        """Tabulate the sweep and the rIOTLB's functional counters."""
        rows: List[List[object]] = []
        for outcome in self.outcomes:
            rows.append(
                [
                    outcome.name,
                    outcome.variant,
                    outcome.history_capacity,
                    f"{outcome.hit_rate:.3f}",
                    f"{outcome.stats.coverage:.3f}",
                    outcome.stats.history_entries_max,
                ]
            )
        table = format_table(
            ["prefetcher", "variant", "history cap", "hit rate", "coverage", "history used"],
            rows,
            title=f"Section 5.4: prefetchers on a ring-driven DMA trace "
            f"(ring = {self.ring_entries} entries)",
        )
        r = self.riotlb
        return (
            f"{table}\n"
            f"rIOTLB (2 entries/ring): {r.served_without_walk:.3f} of "
            f"{r.translations} translations served without a DRAM fetch "
            f"({r.prefetch_hits} prefetch hits, {r.walks} walks)"
        )


def run_prefetcher_study(
    packets: int = 400,
    ring_entries: int = 512,
    history_capacities: Sequence[int] = (64, 256, 1024, 4096),
) -> PrefetcherStudyResult:
    """Record a trace from the functional NIC sim and run the sweep."""
    build = RunConfig.from_env().datapath
    trace: DmaTrace = record_netperf_trace(packets=packets, datapath=build)
    outcomes = evaluate_matrix(trace, history_capacities)
    riotlb = measure_riotlb(packets=packets, datapath=build)
    return PrefetcherStudyResult(
        ring_entries=ring_entries, outcomes=outcomes, riotlb=riotlb
    )
