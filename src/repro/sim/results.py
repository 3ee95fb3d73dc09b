"""Result records produced by the benchmark runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.modes import Mode
from repro.perf.cycles import Component


@dataclass
class RunResult:
    """Outcome of one (setup, mode, benchmark) run.

    ``throughput_metric`` is the headline number plotted in Figure 12:
    Gbps for the stream-like workloads, transactions/s for RR, and
    requests/s for Apache and Memcached.  ``cpu`` is utilisation in
    [0, 1] — the second row of Figure 12.
    """

    setup_name: str
    mode: Mode
    benchmark: str
    packets: int
    cycles_total: float
    cycles_per_packet: float
    throughput_metric: float
    cpu: float
    gbps: Optional[float] = None
    requests_per_sec: Optional[float] = None
    transactions_per_sec: Optional[float] = None
    rtt_us: Optional[float] = None
    line_rate_limited: bool = False
    #: average cycles per packet by Table 1 component (Figure 7 data)
    per_packet_breakdown: Dict[Component, float] = field(default_factory=dict)
    #: flat metrics snapshot of the run's machine (deterministic event
    #: counts, never wall-clock); excluded from :meth:`to_dict` so the
    #: golden figure-12 JSON is unaffected
    metrics: Optional[Dict[str, float]] = None
    #: per-run observation summary (cycle attribution, protection audit,
    #: percentiles) attached by ``RunConfig(observe=True)`` runs;
    #: excluded from :meth:`to_dict` for the same golden-JSON reason
    obs: Optional[Dict[str, object]] = None
    #: per-tenant report (``riommu-repro/tenants/v1``) attached by the
    #: multi-tenant scenario; excluded from :meth:`to_dict` for the same
    #: golden-JSON reason
    tenants: Optional[Dict[str, object]] = None
    #: lite telemetry summary (``riommu-repro/telemetry/v1``) attached
    #: by ``observe="lite"``; excluded from :meth:`to_dict` for the same
    #: golden-JSON reason
    telemetry: Optional[Dict[str, object]] = None

    def overhead_per_packet(self) -> float:
        """Map/unmap cycles per packet (everything except PROCESSING)."""
        return sum(
            cycles
            for component, cycles in self.per_packet_breakdown.items()
            if component is not Component.PROCESSING
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (for exporting result grids)."""
        return {
            "setup": self.setup_name,
            "mode": self.mode.label,
            "benchmark": self.benchmark,
            "packets": self.packets,
            "cycles_per_packet": self.cycles_per_packet,
            "throughput_metric": self.throughput_metric,
            "cpu": self.cpu,
            "gbps": self.gbps,
            "requests_per_sec": self.requests_per_sec,
            "transactions_per_sec": self.transactions_per_sec,
            "rtt_us": self.rtt_us,
            "line_rate_limited": self.line_rate_limited,
            "per_packet_breakdown": {
                component.value: cycles
                for component, cycles in self.per_packet_breakdown.items()
            },
        }

    def describe(self) -> str:
        """One-line human-readable summary."""
        parts = [
            f"{self.setup_name}/{self.benchmark}/{self.mode.label}:",
            f"C={self.cycles_per_packet:.0f} cyc/pkt",
            f"metric={self.throughput_metric:.3g}",
            f"cpu={self.cpu * 100:.0f}%",
        ]
        if self.rtt_us is not None:
            parts.append(f"rtt={self.rtt_us:.1f}us")
        return " ".join(parts)


def normalized(
    results: Dict[Mode, RunResult], numerator: Mode, denominator: Mode
) -> float:
    """Throughput ratio ``numerator / denominator`` (Table 2 cells)."""
    return (
        results[numerator].throughput_metric / results[denominator].throughput_metric
    )


def normalized_cpu(
    results: Dict[Mode, RunResult], numerator: Mode, denominator: Mode
) -> float:
    """CPU-utilisation ratio ``numerator / denominator`` (Table 2 cells)."""
    return results[numerator].cpu / results[denominator].cpu
