"""A Linux-like DMA mapping API with pluggable protection backends.

Device drivers call :meth:`DmaApi.map_request` before posting a DMA and
:meth:`DmaApi.unmap_request` after it completes ("DMA addresses should be mapped
only for the time they are actually used and unmapped after the DMA
transfer" — the kernel DMA API rule the paper quotes).  The same driver
code then runs unchanged under any of the seven protection modes; only
the backend differs:

* ``none``            -> :class:`IdentityDmaApi`
* strict/defer (+)    -> :class:`BaselineDmaApi`
* riommu / riommu-    -> :class:`RIommuDmaApi`
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.driver import RIommuDriver
from repro.dma import (
    DmaDirection,
    MapRequest,
    MapResult,
    UnmapRequest,
    UnmapResult,
    _map_request,
    _map_result,
    _unmap_request,
    _unmap_result,
)
from repro.iommu.driver import BaselineIommuDriver
from repro.perf.cycles import CycleAccount


@dataclass(frozen=True)
class SgEntry:
    """One element of a scatter-gather list: a mapped segment."""

    device_addr: int
    length: int


class DmaApi(abc.ABC):
    """Mode-independent mapping interface used by device drivers.

    ``columnar`` is the datapath build of the API's own cycle account;
    the protected backends replace that account with their driver's.
    """

    def __init__(self, columnar: bool = True) -> None:
        self.account = CycleAccount(label="dma-api", columnar=columnar)

    @abc.abstractmethod
    def map_request(self, req: MapRequest) -> MapResult:
        """Map a buffer; the result carries its device-visible address.

        ``req.ring`` is the rIOMMU ring ID for the mapping; backends
        that have no per-ring tables ignore it.
        """

    @abc.abstractmethod
    def unmap_request(self, req: UnmapRequest) -> UnmapResult:
        """Unmap a device address; the result carries the physical address.

        ``req.end_of_burst`` marks the last unmap of a completion burst
        — the only point where the rIOMMU needs an rIOTLB invalidation.
        """

    @abc.abstractmethod
    def create_ring(self, entries: int) -> Optional[int]:
        """Create a per-ring mapping table where the backend has one.

        Returns the ring ID for the rIOMMU backend, None otherwise.
        """

    def shutdown(self) -> None:
        """Tear down backend state (default: nothing)."""

    # -- burst forms (columnar datapath) -----------------------------------

    def map_burst(
        self,
        specs: Sequence[Tuple[int, int]],
        direction: DmaDirection,
        ring: Optional[int] = None,
    ) -> List[int]:
        """Map a burst of (phys_addr, size) buffers; returns device addresses.

        Semantically a loop of :meth:`map_request` calls (and that is the
        default implementation); backends override it to charge the
        whole burst with per-component folds instead of per-item calls.
        """
        return [
            self.map_request(_map_request(phys, size, direction, ring)).device_addr
            for phys, size in specs
        ]

    def unmap_burst(
        self, device_addrs: Sequence[int], end_of_burst: bool = True
    ) -> List[int]:
        """Unmap a completion burst; returns the physical addresses.

        ``end_of_burst`` applies to the last address only, exactly like
        the equivalent loop of :meth:`unmap_request` calls.
        """
        last = len(device_addrs) - 1
        return [
            self.unmap_request(
                _unmap_request(addr, end_of_burst and i == last)
            ).phys_addr
            for i, addr in enumerate(device_addrs)
        ]

    # -- scatter-gather (dma_map_sg analogue) ------------------------------

    def map_sg(
        self,
        segments: Sequence[Tuple[int, int]],
        direction: DmaDirection,
        ring: Optional[int] = None,
    ) -> List[SgEntry]:
        """Map a scatter-gather list of (phys_addr, length) segments.

        The paper notes SG lists make the per-descriptor IOVA count (K)
        "large or unbounded" (§4) — which is why the flat-table size N
        must be sized by the driver.  Each segment gets its own mapping;
        on failure, segments mapped so far are rolled back.
        """
        if not segments:
            raise ValueError("scatter-gather list must be non-empty")
        mapped: List[SgEntry] = []
        try:
            for phys_addr, length in segments:
                result = self.map_request(
                    _map_request(phys_addr, length, direction, ring)
                )
                mapped.append(SgEntry(result.device_addr, length))
        except Exception:
            for entry in reversed(mapped):
                self.unmap_request(_unmap_request(entry.device_addr))
            raise
        return mapped

    def unmap_sg(self, entries: Sequence[SgEntry], end_of_burst: bool = False) -> None:
        """Unmap a scatter-gather list; burst flag applies to the last."""
        last = len(entries) - 1
        for i, entry in enumerate(entries):
            self.unmap_request(
                _unmap_request(entry.device_addr, end_of_burst and i == last)
            )

    # -- metrics helpers ------------------------------------------------

    @property
    def overhead_cycles(self) -> float:
        """Total (un)mapping cycles charged so far."""
        return self.account.total()


class IdentityDmaApi(DmaApi):
    """IOMMU disabled: device addresses are physical addresses, cost-free."""

    def map_request(self, req: MapRequest) -> MapResult:
        if req.size <= 0:
            raise ValueError("size must be positive")
        return _map_result(req.phys_addr, req.ring)

    def unmap_request(self, req: UnmapRequest) -> UnmapResult:
        return _unmap_result(req.device_addr)

    def map_burst(
        self,
        specs: Sequence[Tuple[int, int]],
        direction: DmaDirection,
        ring: Optional[int] = None,
    ) -> List[int]:
        # No state and no cost: validate in request order, pass through.
        for _, size in specs:
            if size <= 0:
                raise ValueError("size must be positive")
        return [phys for phys, _ in specs]

    def unmap_burst(
        self, device_addrs: Sequence[int], end_of_burst: bool = True
    ) -> List[int]:
        return list(device_addrs)

    def create_ring(self, entries: int) -> Optional[int]:
        return None


class BaselineDmaApi(DmaApi):
    """Baseline IOMMU backend (strict / strict+ / defer / defer+)."""

    def __init__(self, driver: BaselineIommuDriver) -> None:
        super().__init__()
        self.driver = driver
        self.account = driver.account

    def map_request(self, req: MapRequest) -> MapResult:
        return self.driver.map_request(req)

    def unmap_request(self, req: UnmapRequest) -> UnmapResult:
        return self.driver.unmap_request(req)

    def unmap_burst(
        self, device_addrs: Sequence[int], end_of_burst: bool = True
    ) -> List[int]:
        return self.driver.unmap_burst(device_addrs, end_of_burst)

    def create_ring(self, entries: int) -> Optional[int]:
        return None

    def shutdown(self) -> None:
        self.driver.shutdown()


class RIommuDmaApi(DmaApi):
    """rIOMMU backend: device addresses are packed rIOVAs."""

    def __init__(self, driver: RIommuDriver) -> None:
        super().__init__()
        self.driver = driver
        self.account = driver.account
        self._sizes: Dict[int, int] = {}

    def map_request(self, req: MapRequest) -> MapResult:
        # The ring-ID check and rIOVA packing live in the driver's
        # map_request; the offset normalisation in its unmap_request.
        return self.driver.map_request(req)

    def unmap_request(self, req: UnmapRequest) -> UnmapResult:
        return self.driver.unmap_request(req)

    def unmap_burst(
        self, device_addrs: Sequence[int], end_of_burst: bool = True
    ) -> List[int]:
        return self.driver.unmap_burst(device_addrs, end_of_burst)

    def create_ring(self, entries: int) -> Optional[int]:
        return self.driver.create_ring(entries)

    def shutdown(self) -> None:
        self.driver.shutdown()
