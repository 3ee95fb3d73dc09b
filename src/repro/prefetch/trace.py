"""DMA traces for the §5.4 prefetcher study.

The paper's authors logged the DMAs of emulated devices under
KVM/QEMU.  Our equivalent records traces from the functional NIC
simulation (every translation, map and unmap event, in order), and can
also synthesize pure ring-order traces for controlled studies.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.config import DEFAULT_BUILD
from repro.devices.nic import SimulatedNic
from repro.kernel.machine import Machine
from repro.kernel.net_driver import NetDriver
from repro.modes import Mode
from repro.perf.model import ETHERNET_MTU_BYTES
from repro.sim.netperf import NIC_BDF
from repro.sim.setups import MLX_SETUP, Setup


class EventKind(enum.Enum):
    """What happened to an I/O virtual page."""

    MAP = "map"
    ACCESS = "access"
    UNMAP = "unmap"


@dataclass(frozen=True)
class TraceEvent:
    """One event on one I/O virtual page."""

    kind: EventKind
    vpn: int


DmaTrace = List[TraceEvent]


class TraceRecorder:
    """Hooks a machine's IOMMU layer and records a :data:`DmaTrace`."""

    def __init__(self, machine: Machine, bdf: int) -> None:
        if machine.iommu is None:
            raise ValueError("trace recording needs a baseline-IOMMU machine")
        self.trace: DmaTrace = []
        machine.iommu.trace_hook = self._on_access
        driver = machine.dma_api(bdf).driver  # type: ignore[attr-defined]
        driver.map_hook = self._on_map
        driver.unmap_hook = self._on_unmap

    def _on_access(self, _bdf: int, vpn: int) -> None:
        self.trace.append(TraceEvent(EventKind.ACCESS, vpn))

    def _on_map(self, vpn: int, pages: int) -> None:
        for i in range(pages):
            self.trace.append(TraceEvent(EventKind.MAP, vpn + i))

    def _on_unmap(self, vpn: int, pages: int) -> None:
        for i in range(pages):
            self.trace.append(TraceEvent(EventKind.UNMAP, vpn + i))


def record_netperf_trace(
    packets: int = 500,
    setup: Setup = MLX_SETUP,
    mode: Mode = Mode.STRICT_PLUS,
    burst: int = 64,
    datapath: str = DEFAULT_BUILD,
) -> DmaTrace:
    """Record the DMA trace of a Netperf-stream-like run.

    Builds a baseline-IOMMU machine (of the ``datapath`` build) and NIC
    driver, attaches the recorder's hooks, then pushes ``packets``
    transmit packets through.
    """
    machine = Machine(mode, cost_scale=setup.cost_scale(mode), datapath=datapath)
    nic = SimulatedNic(machine.bus, NIC_BDF, setup.nic_profile)
    driver = NetDriver(machine, nic, coalesce_threshold=burst)
    recorder = TraceRecorder(machine, NIC_BDF)
    driver.fill_rx()
    payload = b"\xcd" * ETHERNET_MTU_BYTES
    sent = 0
    while sent < packets:
        if driver.transmit(payload):
            sent += 1
            if sent % 32 == 0:
                driver.pump_tx()
        else:
            driver.pump_tx()
    driver.pump_tx()
    driver.flush_tx()
    return recorder.trace


def synthesize_ring_trace(
    ring_entries: int,
    rounds: int,
    buffers_per_packet: int = 1,
    reuse_window: Optional[int] = None,
    scramble_seed: Optional[int] = 7,
) -> DmaTrace:
    """Synthesize the canonical ring pattern: map -> access -> unmap in order.

    ``reuse_window`` models the IOVA allocator reusing addresses after
    that many allocations (Linux reuses freed IOVAs quickly); None means
    every mapping gets a fresh page, which defeats history-based
    prefetchers entirely.  ``scramble_seed`` permutes the reused pages
    so consecutive ring slots do not sit on consecutive pages — real
    target buffers land wherever the allocator put them, which is what
    starves stride-based (Distance) prefetchers.
    """
    trace: DmaTrace = []
    next_fresh = 0
    permutation: Optional[List[int]] = None
    if reuse_window is not None and scramble_seed is not None:
        permutation = list(range(reuse_window))
        random.Random(scramble_seed).shuffle(permutation)

    def vpn_for(slot_index: int) -> int:
        nonlocal next_fresh
        if reuse_window is not None:
            slot = slot_index % reuse_window
            return permutation[slot] if permutation is not None else slot
        vpn = next_fresh
        next_fresh += 1
        return vpn

    slots = ring_entries * buffers_per_packet
    live: List[int] = []
    counter = 0
    for _ in range(rounds):
        for _ in range(ring_entries):
            for _ in range(buffers_per_packet):
                vpn = vpn_for(counter)
                counter += 1
                trace.append(TraceEvent(EventKind.MAP, vpn))
                live.append(vpn)
        for vpn in live:
            trace.append(TraceEvent(EventKind.ACCESS, vpn))
        for vpn in live:
            trace.append(TraceEvent(EventKind.UNMAP, vpn))
        live.clear()
    return trace


def access_count(trace: DmaTrace) -> int:
    """Number of ACCESS events in a trace."""
    return sum(1 for event in trace if event.kind is EventKind.ACCESS)


# -- persistence ----------------------------------------------------------

_KIND_CODES = {EventKind.MAP: "M", EventKind.ACCESS: "A", EventKind.UNMAP: "U"}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def save_trace(trace: DmaTrace, path) -> None:
    """Write a trace to disk, one ``<code> <vpn>`` line per event.

    The format is deliberately trivial (``M 123`` / ``A 123`` /
    ``U 123``) so traces can be produced or consumed by other tools.
    """
    with open(path, "w") as handle:
        handle.write("# rIOMMU-repro DMA trace v1\n")
        for event in trace:
            handle.write(f"{_KIND_CODES[event.kind]} {event.vpn}\n")


def load_trace(path) -> DmaTrace:
    """Read a trace written by :func:`save_trace`."""
    trace: DmaTrace = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                code, vpn_text = line.split()
                trace.append(TraceEvent(_CODE_KINDS[code], int(vpn_text)))
            except (ValueError, KeyError):
                raise ValueError(f"{path}:{line_no}: malformed trace line {line!r}")
    return trace
