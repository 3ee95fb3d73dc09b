"""Experiment E6 — the paper's Table 3.

Netperf RR round-trip time in microseconds, all seven modes, both NICs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.report import format_table
from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.perf.calibration import TABLE3_RTT_US
from repro.sim.netperf import NetperfRR
from repro.sim.scheduler import run_events
from repro.sim.setups import ALL_SETUPS


@dataclass
class Table3Result:
    """Measured RTTs per setup/mode."""

    rtt_us: Dict[str, Dict[Mode, float]]

    def render(self) -> str:
        """Tabulate measured vs paper RTTs."""
        rows: List[List[object]] = []
        for setup_name, per_mode in self.rtt_us.items():
            rows.append(
                [setup_name, "measured"]
                + [f"{per_mode[m]:.1f}" for m in ALL_MODES]
            )
            paper = TABLE3_RTT_US[setup_name]
            rows.append(
                [setup_name, "paper"] + [f"{paper[m]:.1f}" for m in ALL_MODES]
            )
        return format_table(
            ["NIC", "source"] + [m.label for m in ALL_MODES],
            rows,
            title="Table 3: Netperf RR round-trip time (microseconds)",
        )


def run_table3(transactions: int = 200, warmup: int = 40) -> Table3Result:
    """Run the RR workload for every setup/mode."""
    build = RunConfig.from_env().datapath
    workload = NetperfRR(transactions=transactions, warmup=warmup)
    rtts: Dict[str, Dict[Mode, float]] = {}
    for setup in ALL_SETUPS:
        rtts[setup.name] = {}
        for mode in ALL_MODES:
            result = run_events(workload, setup, mode, datapath=build)
            assert result.rtt_us is not None
            rtts[setup.name][mode] = result.rtt_us
    return Table3Result(rtt_us=rtts)
