"""Experiment E1 — the paper's Table 1.

Average cycle breakdown of the IOMMU driver's map/unmap functions for
strict, strict+, defer and defer+, measured while the functional
simulation runs Netperf TCP stream on the mlx setup.  The per-invocation
averages are extracted from the run's :class:`CycleAccount`, so this
verifies the whole charging pipeline end-to-end (the calibrated cost
model should land exactly on the constants, by construction — the value
of the experiment is that the *functional* driver executed every
operation the component is charged for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.modes import BASELINE_MODES, Mode
from repro.perf.costs import TABLE1_CYCLES
from repro.perf.cycles import Component, MAP_COMPONENTS, UNMAP_COMPONENTS
from repro.sim.netperf import NetperfStream
from repro.sim.results import RunResult
from repro.sim.scheduler import run_events
from repro.sim.setups import MLX_SETUP
from repro.analysis.report import format_table

#: rows of the paper's Table 1, in print order
ROW_ORDER = (
    ("map", "iova alloc", Component.IOVA_ALLOC),
    ("map", "page table", Component.MAP_PAGE_TABLE),
    ("map", "other", Component.MAP_OTHER),
    ("unmap", "iova find", Component.IOVA_FIND),
    ("unmap", "iova free", Component.IOVA_FREE),
    ("unmap", "page table", Component.UNMAP_PAGE_TABLE),
    ("unmap", "iotlb inv", Component.IOTLB_INV),
    ("unmap", "other", Component.UNMAP_OTHER),
)


@dataclass
class Table1Result:
    """Measured per-invocation averages for the four baseline modes."""

    averages: Dict[Mode, Dict[Component, float]]

    def render(self) -> str:
        """Print measured-vs-paper in the paper's layout."""
        headers = ["function", "component"] + [
            f"{mode.label} (paper)" for mode in BASELINE_MODES
        ]
        rows: List[List[object]] = []
        for function, label, component in ROW_ORDER:
            row: List[object] = [function, label]
            for mode in BASELINE_MODES:
                measured = self.averages[mode].get(component, 0.0)
                paper = TABLE1_CYCLES[mode][component]
                row.append(f"{measured:.0f} ({paper:.0f})")
            rows.append(row)
        for function, components in (("map", MAP_COMPONENTS), ("unmap", UNMAP_COMPONENTS)):
            row = [function, "sum"]
            for mode in BASELINE_MODES:
                measured = sum(self.averages[mode].get(c, 0.0) for c in components)
                paper = sum(TABLE1_CYCLES[mode][c] for c in components)
                row.append(f"{measured:.0f} ({paper:.0f})")
            rows.append(row)
        return format_table(
            headers,
            rows,
            title="Table 1: average cycles of the (un)map components, measured (paper)",
        )


def run_table1(packets: int = 600, warmup: int = 150) -> Table1Result:
    """Run Netperf stream on mlx under the four baseline modes."""
    workload = NetperfStream(packets=packets, warmup=warmup)
    averages: Dict[Mode, Dict[Component, float]] = {}
    for mode in BASELINE_MODES:
        result: RunResult = run_events(workload, MLX_SETUP, mode)
        # Per-*invocation* averages need the event counts; re-derive from
        # the run's breakdown and counted events per packet: each packet
        # on mlx is 2 maps + 2 unmaps, so invocations = 2 * packets.
        per_invocation: Dict[Component, float] = {}
        for component in Component:
            if component is Component.PROCESSING:
                continue
            per_packet = result.per_packet_breakdown.get(component, 0.0)
            invocations_per_packet = MLX_SETUP.nic_profile.buffers_per_packet
            per_invocation[component] = per_packet / invocations_per_packet
        averages[mode] = per_invocation
    return Table1Result(averages=averages)
