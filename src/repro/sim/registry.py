"""The benchmark registry: named workload specs instead of an if-chain.

Each Figure 12 workload registers a :class:`BenchmarkSpec` here under
its paper name.  ``make_benchmark`` keeps its historical signature and
semantics — name strings keep working, ``fast=True`` shrinks the run
for unit tests, and an unknown name raises :class:`KeyError` — but the
registry makes the set of workloads data, not control flow: ablations
and external callers can enumerate ``BENCHMARKS``, read descriptions,
or register their own spec without editing the runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.sim.apache import ApacheBench
from repro.sim.memcached import MemcachedBench
from repro.sim.multiring import MultiRingStream
from repro.sim.netperf import NetperfRR, NetperfStream
from repro.sim.tenancy import TenantScenario, preset_scenario


@dataclass(frozen=True)
class BenchmarkSpec:
    """One registered workload.

    ``factory(fast)`` instantiates the workload: full-size parameters
    when ``fast`` is False (the reproduction benchmarks), shrunk runs
    when True (unit tests and ``--fast``).  The workload implements the
    event kernel's protocol, ``build_actors``/``finalize_events`` (see
    :mod:`repro.sim.scheduler`).

    ``figure12`` marks workloads that belong to the paper's Figure 12
    grid; simulator-scaling benchmarks (``mstream``) register with it
    False so default grids, goldens and tables never pick them up.
    """

    name: str
    factory: Callable[[bool], object]
    description: str
    figure12: bool = True

    def make(self, fast: bool = False):
        """Instantiate the workload."""
        return self.factory(fast)


#: Registered workloads, in the paper's Figure 12 order.
BENCHMARKS: Dict[str, BenchmarkSpec] = {}


def register_benchmark(spec: BenchmarkSpec) -> BenchmarkSpec:
    """Add (or replace) a spec under ``spec.name``; returns it."""
    BENCHMARKS[spec.name] = spec
    return spec


def make_benchmark(name: str, fast: bool = False, tenancy=None):
    """Instantiate a workload by its paper name.

    ``fast=True`` shrinks the run for use inside unit tests; the full
    sizes are used by the reproduction benchmarks.  Unknown names raise
    ``KeyError`` listing every registered benchmark.

    ``tenancy`` (a :class:`~repro.sim.tenancy.ScenarioSpec`, usually
    from ``RunConfig.tenancy``) parameterises the ``"tenants"``
    benchmark; other benchmarks ignore it, so a config carrying a
    scenario does not perturb the figure-12 grid.
    """
    if name == "tenants" and tenancy is not None:
        return TenantScenario(spec=tenancy, fast=fast)
    spec = BENCHMARKS.get(name)
    if spec is None:
        known = ", ".join(sorted(BENCHMARKS))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")
    return spec.make(fast)


register_benchmark(
    BenchmarkSpec(
        name="stream",
        factory=lambda fast: (
            NetperfStream(packets=400, warmup=100) if fast else NetperfStream()
        ),
        description="Netperf TCP stream: MTU-size packets, one connection",
    )
)
register_benchmark(
    BenchmarkSpec(
        name="rr",
        factory=lambda fast: (
            NetperfRR(transactions=60, warmup=20) if fast else NetperfRR()
        ),
        description="Netperf UDP request-response: 1-byte ping-pong",
    )
)
register_benchmark(
    BenchmarkSpec(
        name="apache 1M",
        factory=lambda fast: (
            ApacheBench(file_bytes=1 << 20, requests=4, warmup=1)
            if fast
            else ApacheBench(file_bytes=1 << 20, requests=25, warmup=5)
        ),
        description="ApacheBench serving a 1 MB static file",
    )
)
register_benchmark(
    BenchmarkSpec(
        name="apache 1K",
        factory=lambda fast: (
            ApacheBench(file_bytes=1 << 10, requests=40, warmup=10)
            if fast
            else ApacheBench(file_bytes=1 << 10, requests=250, warmup=50)
        ),
        description="ApacheBench serving a 1 KB static file",
    )
)
register_benchmark(
    BenchmarkSpec(
        name="memcached",
        factory=lambda fast: (
            MemcachedBench(requests=60, warmup=15) if fast else MemcachedBench()
        ),
        description="Memslap mix: 90% get / 10% set, 64 B keys, 1 KB values",
    )
)
register_benchmark(
    BenchmarkSpec(
        name="mstream",
        factory=lambda fast: (
            MultiRingStream(domains=4, packets=200, warmup=50)
            if fast
            else MultiRingStream()
        ),
        description="N independent stream domains, one ring each "
        "(event-kernel scaling benchmark; shards with REPRO_SHARDS)",
        figure12=False,
    )
)
register_benchmark(
    BenchmarkSpec(
        name="tenants",
        factory=lambda fast: TenantScenario(
            spec=preset_scenario("balanced"), fast=fast
        ),
        description="N tenants contending for one IOMMU: shared "
        "IOTLB capacity + invalidation queue, per-tenant p50/p95/p99 "
        "and Gbps (scenario via RunConfig.tenancy / REPRO_TENANCY)",
        figure12=False,
    )
)
