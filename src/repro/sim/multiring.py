"""Multi-ring stream workload: N independent domains on one host.

The paper's motivating scenario is a host serving *many* rings at once
— each assigned to its own protection domain, each with its own rRINGs
and rIOTLB entries — and the event kernel interleaves such domains in
modelled-time order on one heap.  This workload models the simplest
honest version of that: ``N`` identical netperf-stream senders, each
with its own machine, NIC and driver (domains share *no* state, like
tenants on an SR-IOV device).  Once the heap drains,
:meth:`MultiRingStream.finalize_domains` folds the per-domain payloads
in domain order.

Registered as ``mstream`` with ``figure12=False``: it is a scaling
benchmark for the simulator itself, not a cell of the paper's Figure 12
grid, so the golden figure-12 JSON never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import DEFAULT_BUILD
from repro.modes import Mode
from repro.perf.cycles import Component
from repro.perf.model import throughput_with_line_rate
from repro.sim.netperf import NetperfStream, StreamActor
from repro.sim.results import RunResult
from repro.sim.setups import Setup


@dataclass
class MultiRingStream:
    """``domains`` independent netperf-stream senders, one ring each."""

    name: str = "mstream"
    #: independent protection domains (one machine + NIC + driver each)
    domains: int = 8
    #: per-domain measured packets / warmup, netperf-stream semantics
    packets: int = 800
    warmup: int = 160
    pump_interval: int = 64
    #: extra Machine() arguments (cost policy/overrides for ablations)
    machine_kwargs: Dict = field(default_factory=dict)

    def _domain_stream(self) -> NetperfStream:
        """The per-domain sub-workload (a plain netperf stream)."""
        return NetperfStream(
            packets=self.packets,
            warmup=self.warmup,
            pump_interval=self.pump_interval,
            machine_kwargs=dict(self.machine_kwargs),
        )

    # -- event-kernel protocol ------------------------------------------

    def build_actors(
        self, setup: Setup, mode: Mode, datapath: str = DEFAULT_BUILD
    ) -> List[StreamActor]:
        """One stream actor per domain, tagged with its domain index."""
        actors = []
        for domain in range(self.domains):
            actor = StreamActor(self._domain_stream(), setup, mode, datapath)
            actor.domain = domain
            actors.append(actor)
        return actors

    def finalize_events(
        self, actors: List[StreamActor], setup: Setup, mode: Mode
    ) -> RunResult:
        """Merge completed actors' payloads."""
        return self.finalize_domains(
            [_actor_payload(actor) for actor in actors], setup, mode
        )

    def finalize_domains(
        self, payloads: List[Dict[str, object]], setup: Setup, mode: Mode
    ) -> RunResult:
        """Fold per-domain payloads into one result, in domain order.

        Payloads sort by domain index and cycles and event counts fold
        in that fixed order, so the heap's interleaving of domains is
        invisible in the result.
        """
        payloads = sorted(payloads, key=lambda payload: payload["domain"])
        if len(payloads) != self.domains:
            raise ValueError(
                f"expected payloads for {self.domains} domains, got {len(payloads)}"
            )
        cycles: Dict[Component, float] = {}
        events: Dict[Component, int] = {}
        measured = 0
        for payload in payloads:
            measured += payload["measured"]
            for name, value in payload["cycles"].items():
                component = Component(name)
                cycles[component] = cycles.get(component, 0.0) + value
            for name, count in payload["events"].items():
                component = Component(name)
                events[component] = events.get(component, 0) + count
        total = sum(cycles.values())
        cycles_per_packet = total / measured
        # Each domain drives its own port, so the aggregate line rate is
        # one NIC's worth per domain.
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


def _actor_payload(actor: StreamActor) -> Dict[str, object]:
    """One completed domain's result as plain (picklable) data."""
    account = actor.driver.account
    return {
        "domain": actor.domain,
        "measured": actor.measured,
        "cycles": {c.value: v for c, v in account.cycles.items()},
        "events": {c.value: n for c, n in account.events.items()},
    }
