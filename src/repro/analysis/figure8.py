"""Experiment E3 — the paper's Figure 8.

Netperf throughput as a function of cycles spent per packet.  Three
series, as in the paper:

* the *model* curve Gbps(C) = 1500 B x 8 b x S / C;
* a *busy-wait* series: the functional no-IOMMU simulation with a
  controlled per-packet busy-wait added (the paper's thin line), which
  validates that the model matches a measured system whose only change
  is extra core cycles;
* the seven *mode* points (the paper's crosses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.ascii_plot import xy_plot
from repro.analysis.report import format_table
from repro.modes import ALL_MODES, Mode
from repro.perf.cycles import Component
from repro.perf.model import gbps_from_cycles, throughput_with_line_rate
from repro.sim.netperf import NetperfStream, NIC_BDF, build_machine
from repro.sim.scheduler import run_events
from repro.sim.setups import MLX_SETUP


@dataclass
class Figure8Result:
    """The three series of Figure 8."""

    model_curve: List[Tuple[float, float]]  # (C, Gbps)
    busywait_points: List[Tuple[float, float]]  # measured (C, Gbps)
    mode_points: Dict[Mode, Tuple[float, float]]  # mode -> (C, Gbps)

    def max_model_error(self) -> float:
        """Largest relative gap between busy-wait measurements and model."""
        worst = 0.0
        for cycles, gbps in self.busywait_points:
            predicted = min(
                gbps_from_cycles(cycles, MLX_SETUP.clock_hz),
                MLX_SETUP.nic_profile.line_rate_gbps,
            )
            worst = max(worst, abs(gbps - predicted) / predicted)
        return worst

    def render(self) -> str:
        """Tabulate the busy-wait validation and the mode points."""
        rows: List[Sequence[object]] = []
        for cycles, gbps in self.busywait_points:
            predicted = min(
                gbps_from_cycles(cycles, MLX_SETUP.clock_hz),
                MLX_SETUP.nic_profile.line_rate_gbps,
            )
            rows.append(["busy-wait", f"{cycles:.0f}", f"{gbps:.2f}", f"{predicted:.2f}"])
        for mode in ALL_MODES:
            cycles, gbps = self.mode_points[mode]
            predicted = min(
                gbps_from_cycles(cycles, MLX_SETUP.clock_hz),
                MLX_SETUP.nic_profile.line_rate_gbps,
            )
            rows.append([mode.label, f"{cycles:.0f}", f"{gbps:.2f}", f"{predicted:.2f}"])
        table = format_table(
            ["series", "C (cycles/pkt)", "measured Gbps", "model Gbps"],
            rows,
            title="Figure 8: throughput vs. cycles per packet (mlx)",
        )
        chart = xy_plot(
            {
                "model": self.model_curve,
                "busy-wait": self.busywait_points,
                "modes": list(self.mode_points.values()),
            },
            logx=True,
            glyphs=".ox",
        )
        return f"{table}\n\n{chart}"


def _run_busywait_point(busy_cycles: float, packets: int, warmup: int) -> Tuple[float, float]:
    """Measure the none-mode sim with an extra per-packet busy-wait."""
    from repro.devices.nic import SimulatedNic
    from repro.kernel.net_driver import NetDriver

    machine = build_machine(MLX_SETUP, Mode.NONE)
    nic = SimulatedNic(machine.bus, NIC_BDF, MLX_SETUP.nic_profile)
    driver = NetDriver(machine, nic, coalesce_threshold=MLX_SETUP.stream_burst)
    driver.fill_rx()
    payload = b"\x42" * 1500

    def send(count: int) -> None:
        sent = 0
        while sent < count:
            if driver.transmit(payload):
                driver.account.charge(
                    Component.PROCESSING, MLX_SETUP.c_none_stream + busy_cycles
                )
                sent += 1
                if sent % 64 == 0:
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
    return cycles, perf.gbps


def run_figure8(
    busywait_sweep: Sequence[float] = (0, 1000, 2000, 4000, 8000, 16000),
    curve_points: int = 60,
    packets: int = 300,
    warmup: int = 60,
) -> Figure8Result:
    """Produce all three Figure 8 series."""
    clock = MLX_SETUP.clock_hz
    line_rate = MLX_SETUP.nic_profile.line_rate_gbps
    c_lo, c_hi = 800.0, 20000.0
    curve = []
    for i in range(curve_points):
        cycles = c_lo * (c_hi / c_lo) ** (i / (curve_points - 1))
        curve.append((cycles, min(gbps_from_cycles(cycles, clock), line_rate)))

    busywait = [
        _run_busywait_point(extra, packets, warmup) for extra in busywait_sweep
    ]

    workload = NetperfStream(packets=packets, warmup=warmup)
    mode_points: Dict[Mode, Tuple[float, float]] = {}
    for mode in ALL_MODES:
        result = run_events(workload, MLX_SETUP, mode)
        mode_points[mode] = (result.cycles_per_packet, result.gbps or 0.0)

    return Figure8Result(
        model_curve=curve, busywait_points=busywait, mode_points=mode_points
    )
