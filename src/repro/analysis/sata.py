"""Experiment E9 — §4 sidebar: SATA is too slow for the IOMMU to matter.

The paper ran Bonnie++ sequential I/O on SATA drives and found strict
IOMMU protection indistinguishable from no IOMMU.  We reproduce the
claim with the AHCI model: sequential large-request I/O where the
per-command device latency (milliseconds of disk time) dwarfs the
few-microsecond mapping cost, so throughput differs by well under 1%.

The same harness also demonstrates *why* rIOMMU is inapplicable here:
the drive completes its 32 queue slots out of order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import format_table
from repro.config import RunConfig
from repro.devices.ahci import AhciCommand, AhciController, AhciOp, SECTOR_BYTES
from repro.devices.dma import DmaBus, IdentityBackend, IommuBackend
from repro.dma import DmaDirection, MapRequest, UnmapRequest
from repro.iommu.driver import BaselineIommuDriver
from repro.iommu.hardware import Iommu
from repro.memory.physical import MemorySystem
from repro.modes import Mode
from repro.perf.calibration import CLOCK_HZ

#: Bonnie++-style sequential block I/O, merged by the block layer into
#: large requests.
REQUEST_BYTES = 1024 * 1024
#: sequential HDD throughput ~100 MB/s -> ~2.6 ms of device time per request
DEVICE_US_PER_REQUEST = REQUEST_BYTES / (100e6) * 1e6


@dataclass
class SataResult:
    """Sequential-I/O time under strict IOMMU vs no IOMMU."""

    requests: int
    strict_us_per_request: float
    none_us_per_request: float
    out_of_order_completions: bool

    @property
    def slowdown(self) -> float:
        """strict / none elapsed time ratio."""
        return self.strict_us_per_request / self.none_us_per_request

    def render(self) -> str:
        """Tabulate the comparison."""
        rows: List[List[object]] = [
            ["strict", f"{self.strict_us_per_request:.1f}",
             f"{REQUEST_BYTES / self.strict_us_per_request:.1f}"],
            ["none", f"{self.none_us_per_request:.1f}",
             f"{REQUEST_BYTES / self.none_us_per_request:.1f}"],
        ]
        table = format_table(
            ["mode", "us/request", "MB/s"],
            rows,
            title="SATA sequential I/O (Bonnie++-style, 1 MB merged requests)",
        )
        return (
            f"{table}\n"
            f"slowdown strict vs none: {self.slowdown:.4f}x "
            f"(paper: indistinguishable); drive completed out of order: "
            f"{self.out_of_order_completions}"
        )


def _run_mode(protected: bool, requests: int, build: str) -> tuple:
    mem = MemorySystem(columnar=build == "columnar")
    if protected:
        iommu = Iommu(mem)
        iommu.coherency.enforce = True
        driver = BaselineIommuDriver(mem, iommu, bdf=0x0400, mode=Mode.STRICT)
        bus = DmaBus(mem, IommuBackend(iommu))
    else:
        driver = None
        bus = DmaBus(mem, IdentityBackend())
    ahci = AhciController(bus, bdf=0x0400, seed=7)

    sectors = REQUEST_BYTES // SECTOR_BYTES
    total_cycles = 0.0
    out_of_order = False
    issue_order: List[int] = []
    completion_order: List[int] = []
    lba = 0
    for _ in range(requests):
        phys = mem.alloc_dma_buffer(REQUEST_BYTES)
        mem.ram.write(phys, b"B" * 4096)
        if driver is not None:
            addr = driver.map_request(
                MapRequest(
                    phys_addr=phys,
                    size=REQUEST_BYTES,
                    direction=DmaDirection.TO_DEVICE,
                )
            ).device_addr
        else:
            addr = phys
        slot = ahci.issue(AhciCommand(AhciOp.WRITE, lba, sectors, addr))
        issue_order.append(slot)
        completions = ahci.process(shuffle=True)
        completion_order.extend(c.slot for c in completions)
        if driver is not None:
            driver.unmap_request(UnmapRequest(device_addr=addr))
            total_cycles += driver.account.total()
            driver.account.reset()
        mem.free_dma_buffer(phys, REQUEST_BYTES)
        lba += sectors
    # Out-of-order is only visible with >1 outstanding command; issue a
    # batch to demonstrate it.
    batch_addrs = []
    for i in range(8):
        phys = mem.alloc_dma_buffer(REQUEST_BYTES)
        if driver is not None:
            addr = driver.map_request(
                MapRequest(
                    phys_addr=phys,
                    size=REQUEST_BYTES,
                    direction=DmaDirection.TO_DEVICE,
                )
            ).device_addr
        else:
            addr = phys
        batch_addrs.append((addr, phys))
        ahci.issue(AhciCommand(AhciOp.WRITE, lba + i * sectors, sectors, addr))
    completions = ahci.process(shuffle=True)
    out_of_order = [c.slot for c in completions] != sorted(c.slot for c in completions)
    for addr, phys in batch_addrs:
        if driver is not None:
            driver.unmap_request(UnmapRequest(device_addr=addr))
        mem.free_dma_buffer(phys, REQUEST_BYTES)

    mapping_us = total_cycles / CLOCK_HZ * 1e6 / max(requests, 1)
    return DEVICE_US_PER_REQUEST + mapping_us, out_of_order


def run_sata(requests: int = 40) -> SataResult:
    """Run sequential I/O under strict and none; compare elapsed time."""
    build = RunConfig.from_env().datapath
    strict_us, out_of_order = _run_mode(True, requests, build)
    none_us, _ = _run_mode(False, requests, build)
    return SataResult(
        requests=requests,
        strict_us_per_request=strict_us,
        none_us_per_request=none_us,
        out_of_order_completions=out_of_order,
    )
