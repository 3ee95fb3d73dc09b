"""MICRO-policy validation: does the mode ordering *emerge*?

The CALIBRATED cost policy reproduces the paper's numbers by charging
its measured per-invocation constants.  The MICRO policy instead prices
primitives (a red-black-tree node visit, a PTE write, a cacheline
flush, an IOTLB invalidation) and multiplies by the operation counts
the functional simulation *actually performs* — so the qualitative
result no longer depends on Table 1 at all.

The check: under MICRO, the seven modes must order exactly as the
paper found (strict < strict+ < defer < defer+ < riommu- < riommu <
none in throughput), with the same structural reasons (the pathological
allocator walks more tree nodes than the magazine allocator touches;
strict pays an IOTLB invalidation per unmap while rIOMMU pays one per
burst; riommu- pays flushes riommu does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.report import format_table
from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.perf.costs import CostPolicy
from repro.sim.netperf import NetperfStream
from repro.sim.results import RunResult
from repro.sim.scheduler import run_events
from repro.sim.setups import MLX_SETUP

#: the throughput ordering the paper's Figure 12 (mlx stream) shows
PAPER_ORDER = (
    Mode.STRICT,
    Mode.STRICT_PLUS,
    Mode.DEFER,
    Mode.DEFER_PLUS,
    Mode.RIOMMU_NC,
    Mode.RIOMMU,
    Mode.NONE,
)


@dataclass
class MicroValidationResult:
    """Per-mode results under both cost policies."""

    calibrated: Dict[Mode, RunResult]
    micro: Dict[Mode, RunResult]

    def ordering(self, which: str) -> List[Mode]:
        """Modes sorted by ascending throughput under one policy."""
        results = self.calibrated if which == "calibrated" else self.micro
        return sorted(ALL_MODES, key=lambda m: results[m].throughput_metric)

    def ordering_matches_paper(self) -> bool:
        """True if MICRO reproduces the paper's throughput ordering."""
        return tuple(self.ordering("micro")) == PAPER_ORDER

    def render(self) -> str:
        rows: List[List[object]] = []
        for mode in ALL_MODES:
            rows.append(
                [
                    mode.label,
                    f"{self.calibrated[mode].cycles_per_packet:.0f}",
                    f"{self.micro[mode].cycles_per_packet:.0f}",
                    f"{self.calibrated[mode].gbps:.2f}",
                    f"{self.micro[mode].gbps:.2f}",
                ]
            )
        table = format_table(
            ["mode", "C (calibrated)", "C (micro)", "Gbps (calibrated)", "Gbps (micro)"],
            rows,
            title="MICRO-policy validation (mlx stream): ordering from real "
            "operation counts",
        )
        verdict = (
            "MICRO ordering matches the paper"
            if self.ordering_matches_paper()
            else "MICRO ordering DIFFERS from the paper"
        )
        return f"{table}\n{verdict}: {' < '.join(m.label for m in self.ordering('micro'))}"


def run_micro_validation(packets: int = 300, warmup: int = 60) -> MicroValidationResult:
    """Run mlx stream under both policies for all seven modes."""
    build = RunConfig.from_env().datapath
    calibrated: Dict[Mode, RunResult] = {}
    micro: Dict[Mode, RunResult] = {}
    for mode in ALL_MODES:
        calibrated[mode] = run_events(
            NetperfStream(packets=packets, warmup=warmup),
            MLX_SETUP,
            mode,
            datapath=build,
        )
        micro[mode] = run_events(
            NetperfStream(
                packets=packets,
                warmup=warmup,
                machine_kwargs={"cost_policy": CostPolicy.MICRO},
            ),
            MLX_SETUP,
            mode,
            datapath=build,
        )
    return MicroValidationResult(calibrated=calibrated, micro=micro)
