"""One simulated machine: memory + protection hardware + DMA bus.

A :class:`Machine` wires the pieces for one of the seven modes and
hands out per-device :class:`~repro.kernel.dma_api.DmaApi` instances, so
higher layers (device drivers, workloads) are mode-agnostic.

Each machine is built for one datapath build (``datapath``, one of
:data:`~repro.config.BUILDS`): memory, bus, drivers and cycle accounts
all carry it from construction, so a scalar and a columnar machine can
run side by side in one process.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import BUILDS, DEFAULT_BUILD, check_build
from repro.core.driver import RIommuDriver
from repro.core.riotlb import RIommuHardware
from repro.devices.dma import (
    DmaBus,
    IdentityBackend,
    IommuBackend,
    RIommuBackend,
    TranslationBackend,
)
from repro.iommu.driver import BaselineIommuDriver
from repro.iommu.hardware import Iommu
from repro.iommu.invalidation import DEFAULT_FLUSH_THRESHOLD
from repro.kernel.dma_api import BaselineDmaApi, DmaApi, IdentityDmaApi, RIommuDmaApi
from repro.memory.coherency import CoherencyDomain
from repro.memory.physical import MemorySystem
from repro.modes import Mode
from repro.perf.costs import CostModel, CostPolicy, PrimitiveCosts


class Machine:
    """Memory, (r)IOMMU hardware and DMA bus for one protection mode."""

    def __init__(
        self,
        mode: Mode,
        mem: Optional[MemorySystem] = None,
        cost_policy: CostPolicy = CostPolicy.CALIBRATED,
        iotlb_capacity: int = 64,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        enforce_coherency: bool = True,
        cost_scale: float = 1.0,
        cost_primitives: Optional[PrimitiveCosts] = None,
        cost_overrides: Optional[dict] = None,
        riommu_prefetch: bool = True,
        datapath: str = DEFAULT_BUILD,
    ) -> None:
        self.mode = mode
        if datapath not in BUILDS:
            check_build(datapath)  # raises the canonical ValueError
        self.datapath = datapath
        self.columnar = datapath == "columnar"
        if mem is None:
            mem = MemorySystem(columnar=self.columnar)
        elif mem.columnar != self.columnar:
            raise ValueError(f"mem was not built for the {datapath!r} datapath build")
        self.mem = mem
        self.cost_policy = cost_policy
        self.cost_scale = cost_scale
        self.cost_primitives = cost_primitives
        self.cost_overrides = cost_overrides
        self.flush_threshold = flush_threshold
        self.iommu: Optional[Iommu] = None
        self.riommu: Optional[RIommuHardware] = None
        self._apis: Dict[int, DmaApi] = {}

        if mode is Mode.NONE:
            self.coherency = CoherencyDomain(coherent=True)
            backend: TranslationBackend = IdentityBackend()
        elif mode.is_baseline_iommu:
            # The paper's testbed has a non-coherent I/O page walk.
            self.coherency = CoherencyDomain(coherent=False, enforce=enforce_coherency)
            self.iommu = Iommu(self.mem, self.coherency, iotlb_capacity)
            backend = IommuBackend(self.iommu)
        else:
            self.coherency = CoherencyDomain(
                coherent=mode.coherent_walk, enforce=enforce_coherency
            )
            self.riommu = RIommuHardware(
                self.mem, self.coherency, prefetch_enabled=riommu_prefetch
            )
            backend = RIommuBackend(self.riommu, columnar=self.columnar)
        self.bus = DmaBus(self.mem, backend)

    # -- per-device DMA APIs ------------------------------------------------

    def dma_api(self, bdf: int) -> DmaApi:
        """Create (or return) the DMA API instance for device ``bdf``."""
        api = self._apis.get(bdf)
        if api is not None:
            return api
        api = self._build_api(bdf)
        self._apis[bdf] = api
        return api

    def _build_api(self, bdf: int) -> DmaApi:
        if self.mode is Mode.NONE:
            return IdentityDmaApi(self.columnar)
        cost_model = CostModel(
            self.mode,
            self.cost_policy,
            primitives=self.cost_primitives,
            scale=self.cost_scale,
            overrides=self.cost_overrides,
        )
        if self.mode.is_baseline_iommu:
            assert self.iommu is not None
            driver = BaselineIommuDriver(
                self.mem,
                self.iommu,
                bdf,
                self.mode,
                cost_model=cost_model,
                flush_threshold=self.flush_threshold,
            )
            return BaselineDmaApi(driver)
        assert self.riommu is not None
        driver = RIommuDriver(
            self.mem,
            self.riommu,
            bdf,
            self.mode,
            coherency=self.coherency,
            cost_model=cost_model,
        )
        return RIommuDmaApi(driver)

    # -- aggregate metrics ---------------------------------------------------

    def total_overhead_cycles(self) -> float:
        """(Un)mapping cycles charged across all devices."""
        return sum(api.overhead_cycles for api in self._apis.values())

    def shutdown(self) -> None:
        """Tear down all device DMA state."""
        for api in self._apis.values():
            api.shutdown()
        self._apis.clear()
