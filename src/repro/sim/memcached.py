"""Memcached/Memslap workload model (paper §5.1).

Memslap's default mix is 90% get / 10% set with 64 B keys and 1 KB
values, 32 concurrent requests.  Network-wise a get looks like Apache
1KB (a small query in, a ~1 KB response out) but the application logic
is an order of magnitude lighter — it is "merely an in-memory LRU
cache" — so the per-request IOMMU overhead is proportionally much more
visible (paper §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.config import DEFAULT_BUILD
from repro.devices.nic import SimulatedNic
from repro.kernel.machine import Machine
from repro.kernel.net_driver import NetDriver
from repro.kernel.stack import DEFAULT_APP_COSTS
from repro.modes import Mode
from repro.obs.metrics import collect_machine_metrics
from repro.perf.cycles import Component
from repro.perf.model import requests_per_second
from repro.sim.netperf import NIC_BDF, build_machine
from repro.sim.results import RunResult
from repro.sim.scheduler import WorkloadActor
from repro.sim.setups import Setup

KEY_BYTES = 64
VALUE_BYTES = 1024
GET_FRACTION = 0.9


@dataclass
class MemcachedBench:
    """Memslap-style load: 90% get / 10% set, 64 B keys, 1 KB values."""

    name: str = "memcached"
    requests: int = 400
    warmup: int = 80
    app_cycles: float = DEFAULT_APP_COSTS.memcached_request
    #: extra Machine() arguments (cost policy/overrides for ablations)
    machine_kwargs: Dict = field(default_factory=dict)

    def _build(
        self, setup: Setup, mode: Mode, datapath: str
    ) -> Tuple[Machine, NetDriver]:
        """Construct the machine + driver complex one run (or actor) owns."""
        machine = build_machine(setup, mode, datapath=datapath, **self.machine_kwargs)
        nic = SimulatedNic(machine.bus, NIC_BDF, setup.nic_profile)
        driver = NetDriver(machine, nic, coalesce_threshold=setup.stream_burst)
        driver.fill_rx()
        return machine, driver

    def _result(
        self, machine: Machine, driver: NetDriver, setup: Setup, mode: Mode
    ) -> RunResult:
        """Fold the finished run's account into the Figure-12 result."""
        account = driver.account
        packets = self.requests * 2  # one frame in, one frame out
        cycles_per_request = account.total() / self.requests
        perf = requests_per_second(
            cycles_per_request,
            setup.clock_hz,
            line_rate_gbps=setup.nic_profile.line_rate_gbps,
            bytes_per_request=KEY_BYTES + VALUE_BYTES,
        )
        return RunResult(
            setup_name=setup.name,
            mode=mode,
            benchmark=self.name,
            packets=packets,
            cycles_total=account.total(),
            cycles_per_packet=account.total() / packets,
            throughput_metric=perf.pps,
            cpu=perf.cpu_utilization,
            requests_per_sec=perf.pps,
            gbps=perf.gbps,
            line_rate_limited=perf.line_rate_limited,
            per_packet_breakdown=account.per_packet(packets),
            metrics=collect_machine_metrics(machine),
        )

    def _serve_one(
        self, driver: NetDriver, i: int, gets: int, count: int, setup: Setup
    ) -> None:
        """Serve request ``i`` of a ``count``-request phase."""
        is_get = i < gets or count == 1
        # Query in: a key for gets, key+value for sets.
        query = b"g" * KEY_BYTES if is_get else b"s" * (KEY_BYTES + VALUE_BYTES)
        driver.nic.deliver_frame(query)
        driver.account.stage(Component.PROCESSING, setup.c_none_stream)
        # Response out: the value for gets, a short STORED ack for sets.
        response = b"v" * VALUE_BYTES if is_get else b"ok"
        while not driver.transmit(response):
            driver.pump_tx()
        driver.account.stage(Component.PROCESSING, setup.c_none_stream)
        driver.account.stage(Component.PROCESSING, self.app_cycles)

    def build_actors(
        self, setup: Setup, mode: Mode, datapath: str = DEFAULT_BUILD
    ) -> List["MemcachedActor"]:
        """The event-kernel form of this workload: one server actor."""
        return [MemcachedActor(self, setup, mode, datapath)]

    def finalize_events(
        self, actors: List["MemcachedActor"], setup: Setup, mode: Mode
    ) -> RunResult:
        """Build the result from completed actors (event-kernel path)."""
        actor = actors[0]
        return self._result(actor.machine, actor.driver, setup, mode)


class MemcachedActor(WorkloadActor):
    """:class:`MemcachedBench` as an event-kernel actor.

    One burst = one served request (query in, response out, application
    work) — already a full map/unmap round trip, so finer slicing would
    add scheduling overhead without exposing more concurrency.
    """

    _WARMUP, _MEASURE, _DONE = range(3)

    def __init__(
        self,
        workload: MemcachedBench,
        setup: Setup,
        mode: Mode,
        datapath: str = DEFAULT_BUILD,
    ) -> None:
        self.workload = workload
        self.setup = setup
        self.machine, self.driver = workload._build(setup, mode, datapath)
        super().__init__(self.driver.account)
        self.phase = self._WARMUP
        self.i = 0

    def _burst(self, count: int) -> bool:
        """Serve one request; True once the phase (incl. tail) completes."""
        driver, w = self.driver, self.workload
        if self.i < count:
            w._serve_one(driver, self.i, int(count * GET_FRACTION), count, self.setup)
            self.i += 1
            if self.i < count:
                return False
        driver.pump_tx()
        driver.flush_tx()
        driver.flush_rx()
        return True

    def step(self) -> bool:
        if self.phase == self._WARMUP:
            if self._burst(self.workload.warmup):
                self.driver.account.reset()
                self.i = 0
                self.phase = self._MEASURE
            return True
        if self.phase == self._MEASURE:
            if self._burst(self.workload.requests):
                self.phase = self._DONE
                return False
            return True
        return False
