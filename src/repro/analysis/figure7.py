"""Experiment E2 — the paper's Figure 7.

CPU cycles for processing one packet, broken into stacked components
(IOVA (de)allocation, page-table updates, IOTLB invalidation, other),
for all seven modes, Netperf stream on mlx.  The paper's grid line is
C_none = 1,816 cycles; each bar's label is its height relative to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.ascii_plot import stacked_bar_chart
from repro.analysis.report import format_table
from repro.modes import ALL_MODES, Mode
from repro.perf.calibration import C_NONE_MLX
from repro.perf.cycles import Component
from repro.sim.netperf import NetperfStream
from repro.sim.scheduler import run_events
from repro.sim.setups import MLX_SETUP

#: Figure 7's stack groups, bottom to top.
STACK_GROUPS = (
    ("other", (Component.PROCESSING, Component.MAP_OTHER, Component.UNMAP_OTHER)),
    (
        "page table",
        (Component.MAP_PAGE_TABLE, Component.UNMAP_PAGE_TABLE),
    ),
    (
        "iova (de)alloc",
        (Component.IOVA_ALLOC, Component.IOVA_FIND, Component.IOVA_FREE),
    ),
    ("iotlb inv", (Component.IOTLB_INV,)),
)


@dataclass
class Figure7Result:
    """Per-mode stacked cycles-per-packet."""

    stacks: Dict[Mode, Dict[str, float]]

    def total(self, mode: Mode) -> float:
        """Total cycles per packet for one mode (the bar height)."""
        return sum(self.stacks[mode].values())

    def relative(self, mode: Mode) -> float:
        """Bar height relative to C_none (the paper's bar labels)."""
        return self.total(mode) / C_NONE_MLX

    def render(self) -> str:
        """ASCII rendering of the stacked bars."""
        headers = ["component"] + [mode.label for mode in ALL_MODES]
        rows: List[List[object]] = []
        for group_name, _components in reversed(STACK_GROUPS):
            row: List[object] = [group_name]
            for mode in ALL_MODES:
                row.append(f"{self.stacks[mode][group_name]:.0f}")
            rows.append(row)
        rows.append(
            ["TOTAL (C)"] + [f"{self.total(mode):.0f}" for mode in ALL_MODES]
        )
        rows.append(
            ["x of C_none"] + [f"{self.relative(mode):.2f}" for mode in ALL_MODES]
        )
        table = format_table(
            headers,
            rows,
            title=(
                "Figure 7: cycles per packet by component "
                f"(mlx, Netperf stream; C_none={C_NONE_MLX:.0f})"
            ),
        )
        chart = stacked_bar_chart(
            [mode.label for mode in ALL_MODES],
            [self.stacks[mode] for mode in ALL_MODES],
            title="",
        )
        return f"{table}\n\n{chart}"


def run_figure7(packets: int = 600, warmup: int = 150) -> Figure7Result:
    """Run the seven-mode sweep and group per-packet cycles."""
    workload = NetperfStream(packets=packets, warmup=warmup)
    stacks: Dict[Mode, Dict[str, float]] = {}
    for mode in ALL_MODES:
        result = run_events(workload, MLX_SETUP, mode)
        groups: Dict[str, float] = {}
        for group_name, components in STACK_GROUPS:
            groups[group_name] = sum(
                result.per_packet_breakdown.get(c, 0.0) for c in components
            )
        stacks[mode] = groups
    return Figure7Result(stacks=stacks)
