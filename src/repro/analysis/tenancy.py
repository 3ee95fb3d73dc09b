"""S1: the multi-tenant interference scenario, rendered per tenant.

Runs one :class:`~repro.sim.tenancy.ScenarioSpec` under the contended
baseline (strict) and under rIOMMU on one setup, and prints a
per-tenant table for each mode: latency percentiles (from the
bucket-merged :class:`~repro.obs.metrics.Log2Histogram`), achieved
Gbps against the tenant's line-rate slice, the contention model's
per-tenant knobs (IOTLB share, QI inflation), and the SLO verdict.

The result doubles as the mixed-criticality gate: when the scenario is
SLO-gated (some tenant is ``critical``) and any run mode breaches a
critical tenant's p99 objective, :attr:`TenancyResult.passed` is False
and the CLI exits non-zero — the scenario's headline claim (rIOMMU
isolates; the shared baseline does not) as an executable check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.config import RunConfig
from repro.modes import Mode
from repro.analysis.report import format_table
from repro.sim.results import RunResult
from repro.sim.runner import run_with_config
from repro.sim.setups import MLX_SETUP, Setup
from repro.sim.tenancy import ScenarioSpec, preset_scenario

#: The two modes that tell the scenario's story: the contended shared
#: baseline versus rIOMMU's per-ring isolation.
TENANCY_MODES: Tuple[Mode, ...] = (Mode.STRICT, Mode.RIOMMU)


@dataclass
class TenancyResult:
    """Per-mode scenario results plus the mixed-criticality verdict."""

    scenario: ScenarioSpec
    setup: Setup
    results: Dict[Mode, RunResult]

    @property
    def passed(self) -> bool:
        """False only when a critical tenant breached its SLO somewhere."""
        return all(
            result.tenants["slo"]["ok"] for result in self.results.values()
        )

    def violations(self) -> List[Tuple[Mode, str]]:
        """Every (mode, tenant) pair that breached a critical SLO."""
        return [
            (mode, name)
            for mode, result in self.results.items()
            for name in result.tenants["slo"]["violations"]
        ]

    def _mode_table(self, mode: Mode, result: RunResult) -> str:
        rows = []
        for row in result.tenants["tenants"]:
            slo = "-"
            if row["slo_p99_us"] is not None:
                verdict = "ok" if row["slo_ok"] else "VIOLATED"
                slo = f"{row['slo_p99_us']:g}us {verdict}"
                if row["critical"]:
                    slo += "!"
            rows.append(
                (
                    row["tenant"],
                    row["workload"],
                    row["domains"],
                    f"{row['intensity']:g}",
                    row["iotlb_share"] if row["iotlb_share"] is not None else "-",
                    f"{row['qi_factor']:.2f}",
                    row["p50_us"],
                    row["p95_us"],
                    row["p99_us"],
                    row["gbps"],
                    slo,
                )
            )
        return format_table(
            (
                "tenant",
                "workload",
                "domains",
                "intensity",
                "iotlb/dom",
                "qi",
                "p50us",
                "p95us",
                "p99us",
                "gbps",
                "slo(p99)",
            ),
            rows,
            title=f"--- {self.setup.name} / {self.scenario.name} / {mode.label} ---",
        )

    def render(self) -> str:
        """Per-mode tenant tables plus the gate verdict, paper-style."""
        parts = [
            f"S1: {len(self.scenario.tenants)} tenants sharing one IOMMU "
            f"(IOTLB capacity {self.scenario.iotlb_capacity}, "
            f"qi_beta {self.scenario.qi_beta:g})",
        ]
        parts.extend(
            self._mode_table(mode, result) for mode, result in self.results.items()
        )
        if self.scenario.slo_gated:
            if self.passed:
                parts.append("SLO gate: PASS (every critical tenant met its p99)")
            else:
                breaches = ", ".join(
                    f"{name} under {mode.label}" for mode, name in self.violations()
                )
                parts.append(f"SLO gate: FAIL ({breaches})")
        return "\n\n".join(parts)


def run_tenants(
    scenario: Optional[ScenarioSpec] = None,
    setup: Setup = MLX_SETUP,
    modes: Tuple[Mode, ...] = TENANCY_MODES,
    fast: bool = False,
    config: Optional[RunConfig] = None,
) -> TenancyResult:
    """Run the scenario under each mode on one setup.

    ``config`` carries the shard/datapath knobs (default: the
    ambient environment via ``RunConfig.from_env()``); the scenario
    itself rides in ``config.tenancy`` so grid workers and shard
    workers reconstruct it from ``REPRO_TENANCY``.
    """
    if scenario is None:
        scenario = preset_scenario("balanced")
    base = RunConfig.from_env() if config is None else config
    run_config = replace(base, fast=fast or base.fast, tenancy=scenario)
    return TenancyResult(
        scenario=scenario,
        setup=setup,
        results={
            mode: run_with_config(setup, mode, "tenants", run_config)
            for mode in modes
        },
    )
