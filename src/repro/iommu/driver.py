"""The Linux-style IOMMU driver: map/unmap for the four baseline modes.

This is the software whose cost the paper's Table 1 breaks down.  The
map path (paper Figure 4) allocates an IOVA, inserts the translation
into the radix page table (with the coherency synchronisation the
non-coherent walker requires) and returns the IOVA.  The unmap path
(Figure 6) finds the IOVA range, clears the PTEs, invalidates the IOTLB
according to the mode's policy, and frees the IOVA.

Every step both *executes* (real data-structure work against simulated
memory) and *charges cycles* to a :class:`~repro.perf.cycles.CycleAccount`
under the matching Table 1 component.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Union

from repro.dma import (
    DmaDirection,
    MapRequest,
    MapResult,
    UnmapRequest,
    UnmapResult,
    _map_result,
    _unmap_result,
)
from repro.iommu.hardware import Iommu
from repro.iommu.invalidation import (
    DEFAULT_FLUSH_THRESHOLD,
    DeferredInvalidation,
    StrictInvalidation,
)
from repro.iommu.page_table import RadixPageTable
from repro.iova.base import IovaNotFoundError, IovaRange
from repro.iova.linux_allocator import LinuxIovaAllocator
from repro.iova.magazine import MagazineIovaAllocator
from repro.memory.address import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.memory.physical import MemorySystem
from repro.modes import Mode
from repro.obs.tracer import TRACE
from repro.perf.costs import CostModel, CostPolicy
from repro.perf.cycles import Component, CycleAccount

#: default IOVA space limit: the 32-bit DMA boundary, in pages.
DMA_32BIT_PFN = (1 << 32) >> 12


class LiveMapping(tuple):
    """Book-keeping for one live IOVA mapping.

    Tuple-backed (see :class:`~repro.iova.base.IovaRange`): one per map
    on the hot path, attribute access preserved for callers.
    """

    __slots__ = ()

    def __new__(
        cls, rng: IovaRange, phys_addr: int, size: int, direction: DmaDirection
    ) -> "LiveMapping":
        return tuple.__new__(cls, (rng, phys_addr, size, direction))

    def __getnewargs__(self):
        # Pickle support for the custom positional __new__ (simulation
        # checkpoints serialise the live-mapping table).
        return tuple(self)

    rng: IovaRange = property(itemgetter(0))
    phys_addr: int = property(itemgetter(1))
    size: int = property(itemgetter(2))
    direction: DmaDirection = property(itemgetter(3))


class BaselineIommuDriver:
    """Per-device IOMMU driver for strict/strict+/defer/defer+ modes.

    The driver runs the datapath build of ``mem`` (``mem.columnar``).
    """

    def __init__(
        self,
        mem: MemorySystem,
        iommu: Iommu,
        bdf: int,
        mode: Mode,
        cost_model: Optional[CostModel] = None,
        account: Optional[CycleAccount] = None,
        limit_pfn: int = DMA_32BIT_PFN,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
    ) -> None:
        if not mode.is_baseline_iommu:
            raise ValueError(f"BaselineIommuDriver does not handle mode {mode.label}")
        self.mem = mem
        self.iommu = iommu
        self.bdf = bdf
        self.mode = mode
        self.columnar = mem.columnar
        self.cost_model = cost_model if cost_model is not None else CostModel(mode)
        self.account = (
            account
            if account is not None
            else CycleAccount(label="iommu-driver", columnar=self.columnar)
        )

        if mode.uses_magazine_allocator:
            self.allocator: Union[LinuxIovaAllocator, MagazineIovaAllocator] = (
                MagazineIovaAllocator(limit_pfn)
            )
        else:
            self.allocator = LinuxIovaAllocator(limit_pfn)

        self.page_table = RadixPageTable(
            mem, iommu.coherency, iommu.allocate_domain_id()
        )
        iommu.attach_device(bdf, self.page_table)

        if mode.deferred_invalidation:
            self.invalidation: Union[StrictInvalidation, DeferredInvalidation] = (
                DeferredInvalidation(
                    iommu.iotlb, self.allocator, flush_threshold, qi=iommu.qi
                )
            )
        else:
            self.invalidation = StrictInvalidation(
                iommu.iotlb, self.allocator, qi=iommu.qi
            )

        # Per-invocation constants for the columnar build's staged-charge
        # fast path.  Under the CALIBRATED policy every cost method
        # returns an argument-independent constant, so the hot map/unmap
        # paths can stage pre-computed charges (folded in bulk by the
        # account) instead of re-deriving each one.  MICRO costs vary
        # with the observed operation counts, so they keep the scalar
        # path, as does the whole scalar build.
        if self.columnar and self.cost_model.policy is CostPolicy.CALIBRATED:
            cm = self.cost_model
            self._staged_costs = (
                cm.iova_alloc(0, False),
                cm.page_table_update(1, 0, 0, is_map=True),
                cm.map_other(),
                cm.iova_find(0),
                cm.page_table_update(1, 0, 0, is_map=False),
                (
                    cm.iotlb_deferred_bookkeeping()
                    if mode.deferred_invalidation
                    else cm.iotlb_invalidate_single()
                ),
                cm.iova_free(0, False),
                cm.unmap_other(),
            )
        else:
            self._staged_costs = None

        self._live: Dict[int, LiveMapping] = {}
        self.maps = 0
        self.unmaps = 0
        #: optional hooks called as (vpn, pages) on map/unmap — used by
        #: the DMA-trace recorder for the §5.4 prefetcher study
        self.map_hook = None
        self.unmap_hook = None

    def attach_alias(self, bdf: int) -> None:
        """Attach another device to this driver's protection domain.

        Both devices then share the page table and its domain-tagged
        IOTLB entries (VT-d lets multiple requester IDs map to one
        domain, e.g. for multi-function devices behind one driver).
        """
        self.iommu.attach_device(bdf, self.page_table)

    # -- map (Figure 4) ---------------------------------------------------

    def map_request(self, req: MapRequest) -> MapResult:
        """Map ``[phys_addr, phys_addr + size)``; the result carries its IOVA.

        ``req.ring`` is ignored — the baseline IOMMU has no per-ring
        tables.
        """
        phys_addr, size, direction, _ring = req
        if (
            self._staged_costs is not None
            and not TRACE.active
            and self.map_hook is None
        ):
            return self._map_fast(phys_addr, size, direction)
        if size <= 0:
            raise ValueError("size must be positive")
        # Inline pages_spanned/page_offset/iova_from_vpn: this function
        # runs twice per packet and the helper-call overhead shows.
        pages = ((phys_addr + size - 1) >> PAGE_SHIFT) - (phys_addr >> PAGE_SHIFT) + 1

        # Step 3: IOVA allocation.
        rng = self.allocator.alloc(pages)
        account = self.account
        costs = self._staged_costs
        if costs is None:
            stats = self.allocator.stats
            cache_hit = (
                self.mode.uses_magazine_allocator and stats.last_alloc_visits == 0
            )
            account.charge(
                Component.IOVA_ALLOC,
                self.cost_model.iova_alloc(stats.last_alloc_visits, cache_hit),
            )
        else:
            account.stage(Component.IOVA_ALLOC, costs[0])

        # Step 4: insert the translation(s) into the page table hierarchy.
        entries = 0
        tables = 0
        pfn_lo = rng.pfn_lo
        phys_base = phys_addr & ~PAGE_MASK
        map_page = self.page_table.map_page
        for i in range(pages):
            op = map_page((pfn_lo + i) << PAGE_SHIFT, phys_base + i * PAGE_SIZE, direction)
            entries += op.entries_written
            tables += op.tables_allocated
        if costs is None:
            account.charge(
                Component.MAP_PAGE_TABLE,
                self.cost_model.page_table_update(pages, entries, tables, is_map=True),
                events=pages,
            )
            # Steps 1/2/5: pinning, wrapper glue ("other" in Table 1).
            account.charge(Component.MAP_OTHER, self.cost_model.map_other())
        else:
            account.stage(
                Component.MAP_PAGE_TABLE,
                costs[1] if pages == 1 else costs[1] * pages,
                events=pages,
            )
            account.stage(Component.MAP_OTHER, costs[2])

        iova = (pfn_lo << PAGE_SHIFT) | (phys_addr & PAGE_MASK)
        self._live[pfn_lo] = LiveMapping(rng, phys_addr, size, direction)
        self.maps += 1
        if self.map_hook is not None:
            self.map_hook(pfn_lo, rng.pages)
        if TRACE.active:
            TRACE.emit(
                "map",
                layer="iommu",
                bdf=self.bdf,
                phys_addr=phys_addr,
                size=size,
                device_addr=iova,
                pages=pages,
            )
        return _map_result(iova)

    def _map_fast(
        self, phys_addr: int, size: int, direction: DmaDirection
    ) -> MapResult:
        """Columnar-build map body: identical work and staged charges.

        Entered only when the tracer is off, no map hook is installed,
        and per-mode CALIBRATED costs are staged — so the per-op stats
        objects and the cost-model branches of :meth:`map_request` are
        provably dead and skipped.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        pages = ((phys_addr + size - 1) >> PAGE_SHIFT) - (phys_addr >> PAGE_SHIFT) + 1
        rng = self.allocator.alloc(pages)
        account = self.account
        costs = self._staged_costs
        account.stage(Component.IOVA_ALLOC, costs[0])
        pfn_lo = rng[0]
        map_page_fast = self.page_table.map_page_fast
        phys_base = phys_addr & ~PAGE_MASK
        if pages == 1:
            map_page_fast(pfn_lo << PAGE_SHIFT, phys_base, direction)
            account.stage(Component.MAP_PAGE_TABLE, costs[1])
        else:
            for i in range(pages):
                map_page_fast(
                    (pfn_lo + i) << PAGE_SHIFT, phys_base + i * PAGE_SIZE, direction
                )
            account.stage(Component.MAP_PAGE_TABLE, costs[1] * pages, events=pages)
        account.stage(Component.MAP_OTHER, costs[2])
        self._live[pfn_lo] = LiveMapping(rng, phys_addr, size, direction)
        self.maps += 1
        return _map_result((pfn_lo << PAGE_SHIFT) | (phys_addr & PAGE_MASK))

    # -- unmap (Figure 6) ---------------------------------------------------

    def unmap_request(self, req: UnmapRequest) -> UnmapResult:
        """Tear down the mapping at ``req.device_addr``.

        ``end_of_burst`` is accepted for interface parity with the
        rIOMMU driver; the baseline modes ignore it (strict invalidates
        every entry, deferred batches globally).
        """
        iova, _end_of_burst = req
        pfn = iova >> PAGE_SHIFT

        # Step: find the IOVA in the allocator's tree.
        rng = self.allocator.find(pfn)
        account = self.account
        costs = self._staged_costs
        if costs is None:
            account.charge(
                Component.IOVA_FIND,
                self.cost_model.iova_find(self.allocator.stats.last_find_visits),
            )
        else:
            account.stage(Component.IOVA_FIND, costs[3])
        mapping = self._live.pop(rng.pfn_lo, None)
        if mapping is None:
            raise IovaNotFoundError(f"IOVA {iova:#x} is not a live mapping")

        # Step 2: remove the translation from the page table hierarchy.
        entries = 0
        domain_id = self.page_table.domain_id
        pfn_lo = rng.pfn_lo
        unmap_page = self.page_table.unmap_page
        mark_backing_invalid = self.iommu.iotlb.mark_backing_invalid
        for i in range(rng.pages):
            op = unmap_page((pfn_lo + i) << PAGE_SHIFT)
            entries += op.entries_written
            mark_backing_invalid(domain_id, pfn_lo + i)
        if costs is None:
            account.charge(
                Component.UNMAP_PAGE_TABLE,
                self.cost_model.page_table_update(rng.pages, entries, 0, is_map=False),
                events=rng.pages,
            )
        else:
            account.stage(
                Component.UNMAP_PAGE_TABLE,
                costs[4] if rng.pages == 1 else costs[4] * rng.pages,
                events=rng.pages,
            )

        # The unmap event is emitted here — after the page table no
        # longer maps the range, before the mode's invalidation policy
        # runs — so the protection auditor sees the vulnerability window
        # open exactly when the torn-down pages become IOTLB-only
        # reachable, and a deferred flush triggered by this very unmap
        # closes the window it opened.
        if TRACE.active:
            TRACE.emit(
                "unmap",
                layer="iommu",
                bdf=self.bdf,
                device_addr=iova,
                phys_addr=mapping.phys_addr,
                pages=rng.pages,
                domain=domain_id,
                deferred=self.mode.deferred_invalidation,
            )

        # Steps 3+4: IOTLB invalidation and IOVA free, per policy.
        if self.mode.deferred_invalidation:
            if costs is None:
                account.charge(
                    Component.IOTLB_INV, self.cost_model.iotlb_deferred_bookkeeping()
                )
                flushed = self.invalidation.on_unmap(domain_id, rng)
                if flushed and self.cost_model.policy is CostPolicy.MICRO:
                    account.charge(
                        Component.IOTLB_INV,
                        self.cost_model.iotlb_global_flush(),
                        events=0,
                    )
            else:
                # The MICRO-only flush surcharge cannot apply here: the
                # staged path runs only under CALIBRATED.
                account.stage(Component.IOTLB_INV, costs[5])
                self.invalidation.on_unmap(domain_id, rng)
        else:
            # One page-selective invalidation covers the whole range
            # (multi-page unmaps issue a single ranged IOTLB flush).
            if costs is None:
                account.charge(
                    Component.IOTLB_INV, self.cost_model.iotlb_invalidate_single()
                )
            else:
                account.stage(Component.IOTLB_INV, costs[5])
            self.invalidation.on_unmap(domain_id, rng)
        if costs is None:
            free_stats = self.allocator.stats
            cached = self.mode.uses_magazine_allocator
            account.charge(
                Component.IOVA_FREE,
                self.cost_model.iova_free(free_stats.last_free_visits, cached),
            )
            # Step 5: hand the buffer back up the stack ("other").
            account.charge(Component.UNMAP_OTHER, self.cost_model.unmap_other())
        else:
            account.stage(Component.IOVA_FREE, costs[6])
            account.stage(Component.UNMAP_OTHER, costs[7])
        self.unmaps += 1
        if self.unmap_hook is not None:
            self.unmap_hook(rng.pfn_lo, rng.pages)
        return _unmap_result(mapping.phys_addr)

    def unmap_burst(
        self, device_addrs: Sequence[int], end_of_burst: bool = True
    ) -> List[int]:
        """Unmap a completion burst; returns the physical addresses.

        Semantically a loop of :meth:`unmap_request` calls.  The
        columnar body keeps all stateful work (IOVA-tree finds, page
        table teardown, the mode's invalidation policy) per item in the
        same order, but defers the constant CALIBRATED charges and
        stages each component once per burst — the variable-cost
        UNMAP_PAGE_TABLE charges are run-length encoded so the staged
        folds match the scalar sequence exactly.
        """
        costs = self._staged_costs
        if costs is None or self.unmap_hook is not None or TRACE.active:
            return [
                self.unmap_request(UnmapRequest(device_addr=addr)).phys_addr
                for addr in device_addrs
            ]

        allocator = self.allocator
        live = self._live
        page_table = self.page_table
        domain_id = page_table.domain_id
        unmap_page = page_table.unmap_page
        mark_backing_invalid = self.iommu.iotlb.mark_backing_invalid
        on_unmap = self.invalidation.on_unmap
        phys_addrs: List[int] = []
        # staging tallies, only folded into the account in ``finally``
        n_find = 0
        pt_runs: List[List] = []  # run-length: [cost, events, count]
        n_inv = 0
        done = 0
        try:
            for addr in device_addrs:
                rng = allocator.find(addr >> PAGE_SHIFT)
                n_find += 1
                pfn_lo = rng.pfn_lo
                mapping = live.pop(pfn_lo, None)
                if mapping is None:
                    raise IovaNotFoundError(f"IOVA {addr:#x} is not a live mapping")

                pages = rng.pages
                for i in range(pages):
                    unmap_page((pfn_lo + i) << PAGE_SHIFT)
                    mark_backing_invalid(domain_id, pfn_lo + i)
                cost = costs[4] if pages == 1 else costs[4] * pages
                if pt_runs and pt_runs[-1][0] == cost and pt_runs[-1][1] == pages:
                    pt_runs[-1][2] += 1
                else:
                    pt_runs.append([cost, pages, 1])

                n_inv += 1
                on_unmap(domain_id, rng)
                phys_addrs.append(mapping.phys_addr)
                done += 1
        finally:
            account = self.account
            if n_find:
                account.stage_many(Component.IOVA_FIND, costs[3], n_find)
            for cost, events, count in pt_runs:
                account.stage_many(
                    Component.UNMAP_PAGE_TABLE, cost, count, events=events
                )
            if n_inv:
                account.stage_many(Component.IOTLB_INV, costs[5], n_inv)
            if done:
                account.stage_many(Component.IOVA_FREE, costs[6], done)
                account.stage_many(Component.UNMAP_OTHER, costs[7], done)
                self.unmaps += done
        return phys_addrs

    # -- introspection / teardown -----------------------------------------------

    def live_mappings(self) -> int:
        """Number of mappings currently live from the driver's viewpoint."""
        return len(self._live)

    def pending_invalidations(self) -> int:
        """Unmaps queued behind the deferred flush (0 for strict modes)."""
        return self.invalidation.pending

    def shutdown(self) -> None:
        """Drain deferred invalidations and detach from the IOMMU."""
        self.invalidation.drain()
        self.iommu.detach_device(self.bdf)
