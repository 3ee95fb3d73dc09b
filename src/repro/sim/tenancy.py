"""Multi-tenant IOMMU interference scenario (datacenter contention).

The paper evaluates one device, one domain, one ring family at a time;
production IOMMUs are shared.  N tenants — each a set of protection
domains with its own rings and workload mix — contend for one IOMMU's
finite IOTLB/rIOTLB reach and one invalidation queue, and that
contention is what dominates mixed-criticality deployments.  This
module models the simplest honest version of that story on top of the
PR-7 event kernel:

* :class:`TenantSpec` / :class:`ScenarioSpec` describe the scenario as
  plain frozen data (JSON round-trippable, so it travels to grid worker
  processes through ``REPRO_TENANCY``): per-tenant workload kind
  (stream/rr/memcached/apache — the PR-7 actors, reused), domain count,
  arrival intensity, and an optional p99 latency SLO with a
  ``critical`` flag for the mixed-criticality gate.
* Contention is **static and deterministic**, derived from the spec
  before any domain runs, so domains share no runtime state:

  - **IOTLB capacity**: the shared IOTLB's entries are divided among
    domains in proportion to demand — each of tenant *t*'s domains gets
    ``iotlb_share(t)`` entries, which *shrinks* as other tenants'
    demand grows, raising the victim's miss rate when an aggressor
    ramps up.  rIOMMU is deliberately insensitive to this knob: its
    per-ring rIOTLB reach is the paper's point.
  - **Invalidation queue**: every tenant's invalidation-path costs
    (IOTLB_INV for the baseline modes; ``riotlb_inv`` and the IOTLB
    primitives for rIOMMU) inflate by ``qi_factor(t)`` — one shared QI
    means a tenant's invalidations wait behind the *other* tenants'
    queued entries.
  - **Translation stalls**: per-domain IOTLB misses (baseline) or
    rIOTLB walks (rIOMMU) charge §5.3's measured miss penalty as
    *device-side* latency — it widens per-request latency and eats
    line-rate headroom but is not CPU time, so it is tracked separately
    from the cycle account.

* :class:`TenantScenario` lifts the scenario onto the event kernel via
  the same domain protocol as :class:`~repro.sim.multiring.MultiRingStream`
  (``build_actors`` / ``finalize_domains``): one event heap interleaves
  every domain, and one merge function folds their payloads in domain
  order.  Per-tenant latency distributions are
  :class:`~repro.obs.metrics.Log2Histogram` instances — integer bucket
  merges in that fixed order, so p50/p95/p99 are bit-deterministic.

Registered as ``"tenants"`` with ``figure12=False``: it is a
contention scenario for the simulator, not a cell of the paper's
Figure 12 grid, so the golden figure-12 JSON never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.config import DEFAULT_BUILD
from repro.modes import Mode
from repro.obs.metrics import Log2Histogram
from repro.perf.calibration import IOTLB_MISS_CYCLES
from repro.perf.costs import TABLE1_CYCLES, PrimitiveCosts
from repro.perf.cycles import Component
from repro.perf.model import ETHERNET_MTU_BYTES, throughput_with_line_rate
from repro.sim.apache import REQUEST_BYTES, ApacheBench
from repro.sim.memcached import KEY_BYTES, VALUE_BYTES, MemcachedBench
from repro.sim.netperf import NetperfRR, NetperfStream
from repro.sim.results import RunResult
from repro.sim.scheduler import WorkloadActor
from repro.sim.setups import Setup

#: Schema identifier of the per-tenant report on ``RunResult.tenants``.
TENANTS_SCHEMA = "riommu-repro/tenants/v1"

#: Workload kinds a tenant may run (the PR-7 actor families).
TENANT_WORKLOADS: Tuple[str, ...] = ("stream", "rr", "memcached", "apache")

#: Static file served by ``apache`` tenants (the 1 KB cell: request-
#: dominated, the interesting contrast to stream-like tenants).
_APACHE_FILE_BYTES = 1 << 10

#: Nominal wire bytes per finished work item, for per-tenant Gbps.
_BYTES_PER_ITEM = {
    "stream": float(ETHERNET_MTU_BYTES),
    "rr": 2.0,  # 1-byte ping + 1-byte pong
    "memcached": float(KEY_BYTES + VALUE_BYTES),
    "apache": float(_APACHE_FILE_BYTES + REQUEST_BYTES),
}

#: Device-side stall per baseline IOTLB miss (§5.3 measurement); the
#: rIOMMU's flat-table walk is a single memory access, not a multi-level
#: hierarchy walk, so its per-walk stall is half the measured penalty.
_BASELINE_STALL_CYCLES = IOTLB_MISS_CYCLES
_RIOMMU_STALL_CYCLES = IOTLB_MISS_CYCLES / 2.0

_NUMBER = (int, float)

#: JSON field -> accepted types, for :meth:`TenantSpec.from_dict`.
_TENANT_FIELDS: Dict[str, tuple] = {
    "name": (str,),
    "workload": (str,),
    "domains": (int,),
    "intensity": _NUMBER,
    "slo_p99_us": _NUMBER + (type(None),),
    "critical": (bool,),
}

#: JSON field -> accepted types, for :meth:`ScenarioSpec.from_dict`.
_SCENARIO_FIELDS: Dict[str, tuple] = {
    "tenants": (list,),
    "name": (str,),
    "iotlb_capacity": (int,),
    "qi_beta": _NUMBER,
    "base_packets": (int,),
}


def _check_fields(
    what: str, data: object, types: Dict[str, tuple], required: str
) -> Dict[str, object]:
    """``data`` as constructor keywords, or a ValueError naming the bad field."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(
            f"{what} has unknown keys {unknown}; known: {', '.join(types)}"
        )
    if required not in data:
        raise ValueError(f"{what} is missing {required!r}")
    for key, value in data.items():
        # bool is an int subclass: accept it only where a bool is asked for.
        if not isinstance(value, types[key]) or (
            isinstance(value, bool) and bool not in types[key]
        ):
            expected = "/".join(t.__name__ for t in types[key])
            raise ValueError(
                f"{what} field {key!r} must be {expected}, "
                f"not {type(value).__name__}"
            )
    return dict(data)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a workload mix over its own protection domains.

    ``intensity`` scales the tenant's offered load (work items per
    domain) and its share of the contended resources; ``slo_p99_us``
    is an optional per-tenant p99 latency objective, enforced as a run
    gate only when ``critical`` is also set (mixed criticality: the
    other tenants are best-effort).
    """

    name: str
    workload: str = "stream"
    domains: int = 1
    intensity: float = 1.0
    slo_p99_us: Optional[float] = None
    critical: bool = False

    def __post_init__(self) -> None:
        if self.workload not in TENANT_WORKLOADS:
            raise ValueError(
                f"unknown tenant workload {self.workload!r}: "
                f"expected one of {', '.join(TENANT_WORKLOADS)}"
            )
        if self.domains < 1:
            raise ValueError(f"tenant {self.name!r} needs >= 1 domain")
        if self.intensity <= 0:
            raise ValueError(f"tenant {self.name!r} needs intensity > 0")
        if self.critical and self.slo_p99_us is None:
            raise ValueError(
                f"critical tenant {self.name!r} needs an slo_p99_us to gate on"
            )
        if self.slo_p99_us is not None and self.slo_p99_us <= 0:
            raise ValueError(f"tenant {self.name!r} needs slo_p99_us > 0")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (stable key order)."""
        return {
            "name": self.name,
            "workload": self.workload,
            "domains": self.domains,
            "intensity": self.intensity,
            "slo_p99_us": self.slo_p99_us,
            "critical": self.critical,
        }

    @classmethod
    def from_dict(cls, data: object, what: str = "tenant") -> "TenantSpec":
        """Inverse of :meth:`to_dict`; malformed input raises ValueError."""
        return cls(**_check_fields(what, data, _TENANT_FIELDS, "name"))


@dataclass(frozen=True)
class ScenarioSpec:
    """N tenants sharing one IOMMU: the whole scenario as frozen data.

    ``iotlb_capacity`` is the *shared* IOTLB's entry count, divided
    among domains by demand; ``qi_beta`` sets how steeply one tenant's
    invalidation costs inflate per unit of the *other* tenants' demand
    (one shared invalidation queue); ``base_packets`` is the per-domain
    work-item budget at intensity 1.0.
    """

    tenants: Tuple[TenantSpec, ...]
    name: str = "tenants"
    iotlb_capacity: int = 64
    qi_beta: float = 0.15
    base_packets: int = 320

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ValueError("a scenario needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if self.iotlb_capacity < 2 * sum(t.domains for t in self.tenants):
            raise ValueError(
                "iotlb_capacity too small: need >= 2 entries per domain"
            )
        if self.qi_beta < 0:
            raise ValueError("qi_beta must be >= 0")
        if self.base_packets < 16:
            raise ValueError("base_packets must be >= 16")

    # -- derived contention model ---------------------------------------

    def demand(self, tenant: TenantSpec) -> float:
        """A tenant's offered load on the shared IOMMU."""
        return tenant.domains * tenant.intensity

    @property
    def total_demand(self) -> float:
        """Aggregate offered load of every tenant."""
        return sum(self.demand(t) for t in self.tenants)

    def iotlb_share(self, tenant: TenantSpec) -> int:
        """Shared-IOTLB entries *each of this tenant's domains* gets.

        Demand-proportional partition of the shared capacity: the
        tenant's slice is ``capacity * demand/total_demand``, spread
        over its domains (so per-domain reach is intensity-proportional
        and shrinks as everyone else's demand grows).  Floored at 2
        entries so a starved domain still makes progress.
        """
        return max(
            2, int(self.iotlb_capacity * tenant.intensity / self.total_demand)
        )

    def qi_factor(self, tenant: TenantSpec) -> float:
        """Invalidation-cost inflation from the shared invalidation queue.

        A tenant's invalidations queue behind the *other* tenants'
        entries, so the factor grows with everyone else's demand and is
        1.0 for a tenant alone on the IOMMU.
        """
        return 1.0 + self.qi_beta * (self.total_demand - self.demand(tenant))

    @property
    def slo_gated(self) -> bool:
        """True when some critical tenant's SLO gates the run."""
        return any(t.critical for t in self.tenants)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "iotlb_capacity": self.iotlb_capacity,
            "qi_beta": self.qi_beta,
            "base_packets": self.base_packets,
            "tenants": [t.to_dict() for t in self.tenants],
        }

    @classmethod
    def from_dict(cls, data: object) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; malformed input raises ValueError.

        The boundary for ``REPRO_TENANCY`` and ``repro tenants
        --scenario FILE.json``: each error names the field at fault.
        """
        fields = _check_fields("scenario", data, _SCENARIO_FIELDS, "tenants")
        tenants = tuple(
            TenantSpec.from_dict(t, f"tenants[{i}]")
            for i, t in enumerate(fields.pop("tenants"))
        )
        return cls(tenants=tenants, **fields)


#: The named scenario presets ``--scenario`` accepts.
SCENARIO_PRESETS: Tuple[str, ...] = ("balanced", "aggressor", "critical")


def preset_scenario(name: str, aggressor_intensity: float = 4.0) -> ScenarioSpec:
    """A named scenario preset.

    * ``balanced`` — four equal tenants, one per workload kind.
    * ``aggressor`` — a stream aggressor (3 domains, high intensity)
      against a single-domain stream victim with a loose SLO (met).
    * ``critical`` — the aggressor mix with the victim marked critical
      under a tight SLO that the strict-mode contention breaches (the
      mixed-criticality gate trips).
    """
    if name == "balanced":
        return ScenarioSpec(
            tenants=(
                TenantSpec(name="t-stream", workload="stream"),
                TenantSpec(name="t-rr", workload="rr"),
                TenantSpec(name="t-memcached", workload="memcached"),
                TenantSpec(name="t-apache", workload="apache"),
            )
        )
    if name in ("aggressor", "critical"):
        critical = name == "critical"
        return ScenarioSpec(
            tenants=(
                TenantSpec(
                    name="victim",
                    workload="stream",
                    domains=1,
                    intensity=1.0,
                    # Tight enough that aggressor-inflated invalidation
                    # costs + capacity-starved IOTLB misses breach it
                    # under strict, loose enough that the uncontended
                    # run (and rIOMMU) meets it comfortably.
                    slo_p99_us=2.0 if critical else 12.0,
                    critical=critical,
                ),
                TenantSpec(
                    name="aggressor",
                    workload="stream",
                    domains=3,
                    intensity=aggressor_intensity,
                ),
            )
        )
    raise KeyError(
        f"unknown scenario preset {name!r}; known: {', '.join(SCENARIO_PRESETS)}"
    )


# -- the workload ------------------------------------------------------------


@dataclass
class TenantScenario:
    """A :class:`ScenarioSpec` lifted onto the event kernel.

    Implements the same domain protocol as
    :class:`~repro.sim.multiring.MultiRingStream`: domains are globally
    indexed across tenants (tenant order, then domain order within the
    tenant), each domain runs one mode-contended sub-workload actor,
    and one merge function folds their payloads in domain order.
    """

    spec: ScenarioSpec = field(default_factory=lambda: preset_scenario("balanced"))
    fast: bool = False

    @property
    def name(self) -> str:
        """Benchmark label (the registry's ``"tenants"``)."""
        return self.spec.name

    @property
    def domains(self) -> int:
        """Total domain count across every tenant."""
        return sum(t.domains for t in self.spec.tenants)

    def tenant_of(self, domain: int) -> TenantSpec:
        """The tenant that global domain index ``domain`` belongs to."""
        offset = 0
        for tenant in self.spec.tenants:
            if domain < offset + tenant.domains:
                return tenant
            offset += tenant.domains
        raise IndexError(f"domain {domain} out of range (have {self.domains})")

    # -- per-domain construction ----------------------------------------

    def _scale(self, tenant: TenantSpec) -> int:
        """Per-domain work-item budget for ``tenant`` (intensity-scaled)."""
        base = self.spec.base_packets // 4 if self.fast else self.spec.base_packets
        return max(16, round(base * tenant.intensity))

    def _machine_kwargs(
        self, tenant: TenantSpec, setup: Setup, mode: Mode
    ) -> Dict[str, object]:
        """The static contention model, as ``Machine(...)`` arguments.

        Derived from the spec alone (never from runtime state), so
        every run of the spec builds bit-identical machines.
        """
        qi = self.spec.qi_factor(tenant)
        if mode.is_baseline_iommu:
            table = TABLE1_CYCLES[mode][Component.IOTLB_INV]
            return {
                "iotlb_capacity": self.spec.iotlb_share(tenant),
                "cost_overrides": {Component.IOTLB_INV: table * qi},
            }
        if mode.is_riommu:
            base = setup.riommu_primitives or PrimitiveCosts()
            return {
                "cost_primitives": replace(
                    base,
                    riotlb_inv=base.riotlb_inv * qi,
                    iotlb_inv_single=base.iotlb_inv_single * qi,
                    iotlb_inv_global=base.iotlb_inv_global * qi,
                )
            }
        return {}

    def _sub_workload(self, tenant: TenantSpec, setup: Setup, mode: Mode):
        """One domain's sub-workload, sized and contention-configured."""
        scale = self._scale(tenant)
        kwargs = self._machine_kwargs(tenant, setup, mode)
        if tenant.workload == "stream":
            return NetperfStream(
                packets=scale, warmup=max(8, scale // 5), machine_kwargs=kwargs
            )
        if tenant.workload == "rr":
            return NetperfRR(
                transactions=max(4, scale // 4),
                warmup=max(2, scale // 16),
                machine_kwargs=kwargs,
            )
        if tenant.workload == "memcached":
            return MemcachedBench(
                requests=max(4, scale // 4),
                warmup=max(2, scale // 16),
                machine_kwargs=kwargs,
            )
        return ApacheBench(
            file_bytes=_APACHE_FILE_BYTES,
            requests=max(2, scale // 8),
            warmup=max(1, scale // 32),
            machine_kwargs=kwargs,
        )

    def _build_actor(
        self, domain: int, setup: Setup, mode: Mode, datapath: str
    ) -> "TenantActor":
        """One domain's actor: the tenant's workload actor, instrumented."""
        tenant = self.tenant_of(domain)
        workload = self._sub_workload(tenant, setup, mode)
        inner = workload.build_actors(setup, mode, datapath)[0]
        actor = TenantActor(inner, tenant, mode)
        actor.domain = domain
        return actor

    # -- event-kernel protocol ------------------------------------------

    def build_actors(
        self, setup: Setup, mode: Mode, datapath: str = DEFAULT_BUILD
    ) -> List["TenantActor"]:
        """One instrumented actor per global domain index."""
        return [
            self._build_actor(domain, setup, mode, datapath)
            for domain in range(self.domains)
        ]

    def finalize_events(
        self, actors: List["TenantActor"], setup: Setup, mode: Mode
    ) -> RunResult:
        """Merge completed actors' payloads."""
        return self.finalize_domains(
            [actor.payload() for actor in actors], setup, mode
        )

    def finalize_domains(
        self, payloads: List[Dict[str, object]], setup: Setup, mode: Mode
    ) -> RunResult:
        """Fold per-domain payloads into one result, in domain order.

        Per-tenant latency histograms merge bucket-wise (integer sums)
        in domain order, so percentiles do not depend on how the heap
        interleaved the domains.
        """
        payloads = sorted(payloads, key=lambda payload: payload["domain"])
        if len(payloads) != self.domains:
            raise ValueError(
                f"expected payloads for {self.domains} domains, got {len(payloads)}"
            )
        cycles: Dict[Component, float] = {}
        events: Dict[Component, int] = {}
        per_tenant: Dict[str, Dict[str, object]] = {
            t.name: {
                "measured": 0,
                "stall_cycles": 0.0,
                "stall_events": 0,
                "cpu_cycles": 0.0,
                "hist": Log2Histogram("latency_cycles"),
            }
            for t in self.spec.tenants
        }
        measured = 0
        for payload in payloads:
            measured += payload["measured"]
            for name, value in payload["cycles"].items():
                component = Component(name)
                cycles[component] = cycles.get(component, 0.0) + value
            for name, count in payload["events"].items():
                component = Component(name)
                events[component] = events.get(component, 0) + count
            fold = per_tenant[payload["tenant"]]
            fold["measured"] += payload["measured"]
            fold["stall_cycles"] += payload["stall_cycles"]
            fold["stall_events"] += payload["stall_events"]
            fold["cpu_cycles"] += sum(payload["cycles"].values())
            fold["hist"].merge(
                Log2Histogram.from_snapshot("latency_cycles", payload["latency"])
            )

        result = self._aggregate_result(cycles, measured, setup, mode)
        result.tenants = self._tenant_report(per_tenant, setup, mode)
        return result

    def _aggregate_result(
        self,
        cycles: Dict[Component, float],
        measured: int,
        setup: Setup,
        mode: Mode,
    ) -> RunResult:
        """The scenario-wide RunResult (CPU cycles only, like mstream)."""
        total = sum(cycles.values())
        cycles_per_packet = total / measured
        perf = throughput_with_line_rate(
            cycles_per_packet,
            setup.clock_hz,
            setup.nic_profile.line_rate_gbps * self.domains,
        )
        return RunResult(
            setup_name=setup.name,
            mode=mode,
            benchmark=self.name,
            packets=measured,
            cycles_total=total,
            cycles_per_packet=cycles_per_packet,
            throughput_metric=perf.gbps,
            cpu=perf.cpu_utilization,
            gbps=perf.gbps,
            line_rate_limited=perf.line_rate_limited,
            per_packet_breakdown={
                c: cycles.get(c, 0.0) / measured for c in Component
            },
            # No machine-metrics snapshot: account ids are
            # process-local.
            metrics=None,
        )

    def _tenant_report(
        self, per_tenant: Dict[str, Dict[str, object]], setup: Setup, mode: Mode
    ) -> Dict[str, object]:
        """The ``RunResult.tenants`` payload: per-tenant rows + SLO gate."""
        us_per_cycle = 1e6 / setup.clock_hz
        rows = []
        violations = []
        for tenant in self.spec.tenants:
            fold = per_tenant[tenant.name]
            hist: Log2Histogram = fold["hist"]
            pcts = hist.percentiles()
            p99_us = pcts["p99"] * us_per_cycle
            items = fold["measured"]
            # Effective per-item cycles include the device-side stall
            # the tenant suffered — contention shows up here even
            # though it never touches the CPU account.
            effective = (fold["cpu_cycles"] + fold["stall_cycles"]) / items
            items_per_sec = setup.clock_hz / effective * tenant.domains
            line_gbps = setup.nic_profile.line_rate_gbps * tenant.domains
            offered = items_per_sec * _BYTES_PER_ITEM[tenant.workload] * 8 / 1e9
            slo_ok = tenant.slo_p99_us is None or p99_us <= tenant.slo_p99_us
            if tenant.critical and not slo_ok:
                violations.append(tenant.name)
            rows.append(
                {
                    "tenant": tenant.name,
                    "workload": tenant.workload,
                    "domains": tenant.domains,
                    "intensity": tenant.intensity,
                    "iotlb_share": self.spec.iotlb_share(tenant)
                    if mode.is_baseline_iommu
                    else None,
                    "qi_factor": self.spec.qi_factor(tenant),
                    "items": items,
                    "p50_us": pcts["p50"] * us_per_cycle,
                    "p95_us": pcts["p95"] * us_per_cycle,
                    "p99_us": p99_us,
                    "mean_us": hist.mean * us_per_cycle,
                    "gbps": min(offered, line_gbps),
                    "line_rate_limited": offered >= line_gbps,
                    "stall_cycles": fold["stall_cycles"],
                    "stall_events": fold["stall_events"],
                    "slo_p99_us": tenant.slo_p99_us,
                    "slo_ok": slo_ok,
                    "critical": tenant.critical,
                }
            )
        return {
            "schema": TENANTS_SCHEMA,
            "scenario": self.spec.to_dict(),
            "mode": mode.label,
            "tenants": rows,
            "slo": {
                "gated": self.spec.slo_gated,
                "ok": not violations,
                "violations": violations,
            },
        }


class TenantActor(WorkloadActor):
    """A tenant's workload actor, instrumented for latency and stalls.

    Wraps one of the PR-7 actors (stream/rr/memcached/apache) and
    samples, per measured burst:

    * **per-item latency** — the burst's CPU cycle delta plus its
      device-side translation stall, divided over the items the burst
      completed, observed into a per-domain :class:`Log2Histogram`
      (bursts that complete no item carry their cycles into the next
      productive burst);
    * **translation stalls** — baseline IOTLB misses (or rIOMMU
      walks + sync walks) times the §5.3 miss penalty, accumulated as
      device-side cycles separate from the CPU account.

    The wrapper never touches the inner actor's call stream, so it
    changes none of the inner actor's modelled numbers.
    """

    def __init__(self, inner: WorkloadActor, tenant: TenantSpec, mode: Mode) -> None:
        self.inner = inner
        self.tenant = tenant
        self.mode = mode
        super().__init__(inner.driver.account)
        self.hist = Log2Histogram("latency_cycles")
        self.stall_cycles = 0.0
        self.stall_events = 0
        self._carry = 0.0
        if mode.is_baseline_iommu:
            self._stall_unit = _BASELINE_STALL_CYCLES
        elif mode.is_riommu:
            self._stall_unit = _RIOMMU_STALL_CYCLES
        else:
            self._stall_unit = 0.0

    def _stall_counter(self) -> int:
        """Monotone count of translation-stall events so far."""
        machine = self.inner.machine
        if self.mode.is_baseline_iommu:
            return machine.iommu.iotlb.stats.misses
        if self.mode.is_riommu:
            stats = machine.riommu.riotlb.stats
            return stats.walks + stats.sync_walks
        return 0

    def _progress(self) -> int:
        """Completed work items so far (workload-kind specific).

        The request-shaped actors (rr/memcached/apache) count items in
        ``i``; the stream actor's progress is transmitted packets past
        the warmup baseline.
        """
        inner = self.inner
        if hasattr(inner, "i"):
            return inner.i
        return inner.driver.stats.packets_transmitted - inner.base_tx

    def step(self) -> bool:
        inner = self.inner
        measuring = inner.phase == inner._MEASURE
        if measuring:
            cpu_before = inner.driver.account.total()
            stalls_before = self._stall_counter()
            items_before = self._progress()
        alive = inner.step()
        if measuring:
            stalls = self._stall_counter() - stalls_before
            stall_cycles = stalls * self._stall_unit
            self.stall_events += stalls
            self.stall_cycles += stall_cycles
            burst = (inner.driver.account.total() - cpu_before) + stall_cycles
            items = self._progress() - items_before
            if items > 0:
                per_item = (self._carry + burst) / items
                self._carry = 0.0
                for _ in range(items):
                    self.hist.observe(per_item)
            else:
                self._carry += burst
        return alive

    def payload(self) -> Dict[str, object]:
        """This domain's completed result as plain (picklable) data."""
        account = self.inner.driver.account
        return {
            "domain": self.domain,
            "tenant": self.tenant.name,
            "measured": self.inner.measured
            if hasattr(self.inner, "measured")
            else self._progress(),
            "cycles": {c.value: v for c, v in account.cycles.items()},
            "events": {c.value: n for c, n in account.events.items()},
            "stall_cycles": self.stall_cycles,
            "stall_events": self.stall_events,
            "latency": self.hist.flatten(),
        }
