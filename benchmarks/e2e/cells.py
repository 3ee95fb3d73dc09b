"""The benchmark's four workloads, as lists of cells, and the checks on their outputs.

A *cell* is one simulation run: one workload instance under one protection
mode on the mlx setup.  The benchmark drives each cell through the public
``repro.api.EventSim`` (constructor = set-up, ``step()`` = one burst,
``result()``), which is what ``run_with_config`` executes for a serial
``observe="off"`` run; :attr:`Cell.reference` runs the same cell through
that public runner so the two paths can be compared.

Only ``tenants-mix`` depends on the seed.  The other workloads are the
paper's fixed inputs; the seed only shuffles the order their cells run in.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Mapping, Tuple

from repro.analysis.paper_data import PAPER_TABLE2, TABLE2_DENOMINATORS
from repro.api import (
    ALL_MODES,
    BENCHMARK_NAMES,
    MLX_SETUP,
    Mode,
    RunConfig,
    RunResult,
    ScenarioSpec,
    TenantScenario,
    TenantSpec,
    collect_machine_metrics,
    make_benchmark,
    run_with_config,
)
from repro.sim.netperf import NetperfStream
from repro.sim.runner import run_prepared

SETUP = MLX_SETUP

#: The measured configuration: columnar datapath, event engine, one shard,
#: observation off.  The benchmark refuses to run under any other.
CONFIG = RunConfig()

WORKLOADS: Tuple[str, ...] = ("fig12", "tx-baseline", "tx-riommu", "tenants-mix")

TX_BASELINE_MODES = (Mode.STRICT, Mode.STRICT_PLUS, Mode.DEFER, Mode.DEFER_PLUS)
TX_RIOMMU_MODES = (Mode.RIOMMU_NC, Mode.RIOMMU)
TENANT_MODES = (Mode.STRICT, Mode.DEFER, Mode.RIOMMU)

#: Offered load of each tenant kind in ``tenants-mix``.  The seed splits a
#: tenant's demand over one or two domains (intensity = demand / domains)
#: and orders the tenants, but never changes a kind's demand or the total
#: domain count: every seed then runs the same number of packets of each
#: kind over six domains, so host throughput compares across seeds.
TENANT_DEMAND: Mapping[str, float] = {
    "stream": 1.0,
    "rr": 2.0,
    "memcached": 2.0,
    "apache": 1.0,
}
#: The seed splits one bulk tenant and one small-transaction tenant over
#: two domains each.  A split bulk tenant builds more buffers than a split
#: small one, so splitting one of each pair keeps every seed's machines,
#: and so its memory and set-up time, close to the others'.
SPLIT_PAIRS = (("stream", "apache"), ("rr", "memcached"))


@dataclass(frozen=True)
class Sizes:
    """Workload sizes.  :data:`FULL` is what the benchmark measures.

    ``fig12`` always runs the registry's ``fast`` sizes (``repro figure12
    --fast``), so it has no size here.
    """

    tx_baseline_packets: int = 4000
    tx_riommu_packets: int = 8000
    tx_warmup: int = 400
    tenant_base_packets: int = 960


FULL = Sizes()
#: Sizes for the benchmark's own tests; their digests are never pinned.
SMALL = Sizes(
    tx_baseline_packets=256, tx_riommu_packets=256, tx_warmup=64, tenant_base_packets=64
)


@dataclass(frozen=True)
class Cell:
    """One simulation run of a workload."""

    key: str
    mode: Mode
    #: a fresh workload instance, handed to ``EventSim``
    make: Callable[[], object]
    #: the same cell run through the public runner (``run_with_config``)
    reference: Callable[[], RunResult]


def tenant_mix(seed: int, base_packets: int = FULL.tenant_base_packets) -> ScenarioSpec:
    """The seeded ``tenants-mix`` scenario: one tenant per kind, six domains."""
    rng = random.Random(seed)
    kinds = list(TENANT_DEMAND)
    rng.shuffle(kinds)
    split = {rng.choice(pair) for pair in SPLIT_PAIRS}
    tenants = []
    for kind in kinds:
        domains = 2 if kind in split else 1
        tenants.append(
            TenantSpec(
                name=f"t-{kind}",
                workload=kind,
                domains=domains,
                intensity=TENANT_DEMAND[kind] / domains,
            )
        )
    return ScenarioSpec(tenants=tuple(tenants), name="tenants-mix", base_packets=base_packets)


def cells(workload: str, seed: int, sizes: Sizes = FULL) -> List[Cell]:
    """The workload's cells in canonical order."""
    if workload == "fig12":
        config = replace(CONFIG, fast=True)
        return [
            Cell(
                key=f"{bench}/{mode.label}",
                mode=mode,
                make=partial(make_benchmark, bench, True),
                reference=partial(run_with_config, SETUP, mode, bench, config),
            )
            for bench in BENCHMARK_NAMES
            for mode in ALL_MODES
        ]
    if workload in ("tx-baseline", "tx-riommu"):
        if workload == "tx-baseline":
            modes, packets = TX_BASELINE_MODES, sizes.tx_baseline_packets
        else:
            modes, packets = TX_RIOMMU_MODES, sizes.tx_riommu_packets
        make = partial(NetperfStream, packets=packets, warmup=sizes.tx_warmup)
        return [
            Cell(
                key=f"stream/{mode.label}",
                mode=mode,
                make=make,
                # NetperfStream at a custom size has no registry name, so the
                # reference enters the runner one step below run_with_config.
                reference=lambda mode=mode: run_prepared(make(), SETUP, mode, CONFIG),
            )
            for mode in modes
        ]
    if workload == "tenants-mix":
        spec = tenant_mix(seed, sizes.tenant_base_packets)
        config = replace(CONFIG, tenancy=spec)
        return [
            Cell(
                key=f"tenants/{mode.label}",
                mode=mode,
                make=partial(TenantScenario, spec=spec),
                reference=partial(run_with_config, SETUP, mode, "tenants", config),
            )
            for mode in TENANT_MODES
        ]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def seeded(workload: str) -> bool:
    """True when the workload's inputs (not just its cell order) depend on the seed."""
    return workload == "tenants-mix"


def digest(result: RunResult) -> str:
    """A digest of a cell's modelled output: ``to_dict()``, ``metrics`` and ``tenants``."""
    payload = {
        "result": result.to_dict(),
        "metrics": result.metrics,
        "tenants": result.tenants,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def table2_mae(results: Mapping[str, RunResult]) -> float:
    """Mean |measured/paper - 1| over the mlx Table-2 throughput ratios.

    ``results`` maps fig12 cell keys (``"stream/strict"``) to results; the
    ratios are the two rIOMMU variants over the five other modes, for the
    five Figure-12 benchmarks (50 ratios).
    """
    errors = []
    for bench, metrics in PAPER_TABLE2[SETUP.name].items():
        for numerator, row in metrics["throughput"].items():
            top = results[f"{bench}/{numerator.label}"].throughput_metric
            for denominator in TABLE2_DENOMINATORS:
                measured = top / results[f"{bench}/{denominator.label}"].throughput_metric
                errors.append(abs(measured / row[denominator] - 1.0))
    return sum(errors) / len(errors)


def machine_counters(sim) -> Dict[str, float]:
    """Sum of every actor's machine counters (translations, bytes moved)."""
    totals: Dict[str, float] = {}
    for actor in sim.actors:
        machine = getattr(actor, "machine", None) or actor.inner.machine
        for name, value in collect_machine_metrics(machine).items():
            totals[name] = totals.get(name, 0) + value
    return totals
