"""The rIOMMU OS driver (paper Figure 11): map, unmap, sync_mem.

Mapping is two integer increments plus an rPTE store; unmapping is a
valid-bit clear plus a decrement; IOVA values are just (ring, index)
pairs packed into 64 bits, so there is no allocator data structure at
all.  The rIOTLB is explicitly invalidated only when the caller flags
the end of a completion burst.

Costs are charged to the same Table 1 component taxonomy as the
baseline driver, so Figure 7's stacked bars compare like with like.
"""

from __future__ import annotations

import warnings
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro import datapath as _datapath
from repro.core.riotlb import RIommuHardware
from repro.core.structures import (
    MAX_RENTRY,
    MAX_RID,
    MAX_RPTE_SIZE,
    OFFSET_BITS,
    RENTRY_BITS,
    RDevice,
    RIova,
    RPte,
    RPTE_BYTES,
    _RPTE_STRUCT,
    pack_iova,
    unpack_iova,
)
from repro.dma import (
    DmaDirection,
    MapRequest,
    MapResult,
    UnmapRequest,
    UnmapResult,
    _map_result,
    _tuple_new,
    _unmap_result,
)
from repro.memory.coherency import CoherencyDomain
from repro.memory.physical import MemorySystem
from repro.modes import Mode
from repro.obs.tracer import TRACE
from repro.perf.costs import CostModel
from repro.perf.cycles import Component, CycleAccount


class RingOverflowError(RuntimeError):
    """The flat table is full (``nmapped == size``) — caller must slow down.

    The paper treats overflow as legal back-pressure, exactly like a
    full device ring: the driver retries after completions free entries.
    """


class RIommuMapping(tuple):
    """Driver-side record of one live rIOVA mapping.

    Tuple-backed: two are created per packet on the rIOMMU map path,
    and the C-level tuple constructor beats a dataclass ``__init__``.
    """

    __slots__ = ()

    def __new__(
        cls, iova: RIova, phys_addr: int, size: int, direction: DmaDirection
    ) -> "RIommuMapping":
        return tuple.__new__(cls, (iova, phys_addr, size, direction))

    def __getnewargs__(self):
        # Pickle support for the custom positional __new__ (simulation
        # checkpoints serialise the driver's live-mapping records).
        return tuple(self)

    iova: RIova = property(itemgetter(0))
    phys_addr: int = property(itemgetter(1))
    size: int = property(itemgetter(2))
    direction: DmaDirection = property(itemgetter(3))


class RIommuDriver:
    """Per-device rIOMMU driver managing one rDEVICE's flat tables."""

    def __init__(
        self,
        mem: MemorySystem,
        hardware: RIommuHardware,
        bdf: int,
        mode: Mode = Mode.RIOMMU,
        coherency: Optional[CoherencyDomain] = None,
        cost_model: Optional[CostModel] = None,
        account: Optional[CycleAccount] = None,
    ) -> None:
        if not mode.is_riommu:
            raise ValueError(f"RIommuDriver does not handle mode {mode.label}")
        self.mem = mem
        self.hardware = hardware
        self.bdf = bdf
        self.mode = mode
        self.coherency = (
            coherency
            if coherency is not None
            else CoherencyDomain(coherent=mode.coherent_walk)
        )
        self.cost_model = cost_model if cost_model is not None else CostModel(mode)
        self.account = (
            account if account is not None else CycleAccount(label="riommu-driver")
        )

        # The rIOMMU costs are primitive-composed constants under *both*
        # cost policies (the paper's own simulation composes them the
        # same way), so the hot map/unmap paths always stage
        # pre-computed charges for bulk folding by the account.
        cm = self.cost_model
        self._staged_costs = (
            cm.riommu_map_alloc(),
            cm.riommu_map_pt(),
            cm.riommu_map_other(),
            cm.riommu_unmap_pt(),
            cm.riommu_unmap_free(),
            cm.riotlb_invalidate(),
            cm.riommu_unmap_other(),
        )

        self.device = RDevice(mem, self.coherency, bdf)
        hardware.attach_device(self.device)
        self._live: Dict[Tuple[int, int], RIommuMapping] = {}
        self.maps = 0
        self.unmaps = 0
        self.invalidations = 0

    # -- ring management ----------------------------------------------------

    def create_ring(self, size: int) -> int:
        """Create a flat table of ``size`` entries; returns its ring ID.

        Device drivers create two rRINGs per device ring: one for the
        descriptor-ring pages themselves (mapped once at init) and one
        for the per-DMA target buffers (paper §4, Data Structures).
        """
        return self.device.add_ring(size)

    # -- map (Figure 11, left) -------------------------------------------------

    def map(
        self, rid: int, phys_addr: int, size: int, direction: DmaDirection
    ) -> RIova:
        """Deprecated positional form of :meth:`map_request`."""
        warnings.warn(
            "RIommuDriver.map(rid, phys, size, dir) is deprecated; use "
            "map_request(MapRequest(phys_addr=..., size=..., direction=..., "
            "ring=rid))",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._map(rid, phys_addr, size, direction)

    def map_request(self, req: MapRequest) -> MapResult:
        """Map ``[phys_addr, phys_addr + size)`` into ring ``req.ring``.

        The result's ``device_addr`` is the packed rIOVA with offset 0;
        callers may adjust the offset up to ``size - 1``.  Raises
        :class:`RingOverflowError` when the flat table has no free
        entry.
        """
        phys_addr, size, direction, ring = req
        if ring is None:
            raise ValueError("rIOMMU mappings need a ring ID (create_ring first)")
        if _datapath.COLUMNAR_ENABLED and not TRACE.active:
            return _map_result(self._map_fast(ring, phys_addr, size, direction), ring)
        iova = self._map(ring, phys_addr, size, direction)
        return _map_result(iova.packed(), ring)

    def _map_fast(
        self, rid: int, phys_addr: int, size: int, direction: DmaDirection
    ) -> int:
        """Observer-free :meth:`_map`: same state transitions, memory
        writes, staged charges, and error messages, but the rPTE is
        packed straight to wire format (our encodes are canonical, so
        this is bit-identical to ``RPte(...).encode()``) and the packed
        rIOVA is computed without intermediate objects."""
        if size <= 0:
            raise ValueError("size must be positive")
        if size > MAX_RPTE_SIZE:
            raise ValueError(f"size {size} exceeds the u30 rPTE size field")
        ring = self.device.ring(rid)
        if ring.nmapped == ring.size:
            raise RingOverflowError(
                f"ring {rid} of bdf {self.bdf:#06x} is full ({ring.size} entries)"
            )
        live = self._live
        rentry = ring.tail
        key = (rid, rentry)
        if key in live:
            raise RingOverflowError(
                f"ring {rid} tail entry {ring.tail} is still mapped "
                "(out-of-order unmaps left the ring fragmented)"
            )
        ring.tail = (rentry + 1) % ring.size
        ring.nmapped += 1
        account = self.account
        costs = self._staged_costs
        account.stage(Component.IOVA_ALLOC, costs[0])

        entry_addr = ring.table_addr + rentry * RPTE_BYTES
        ring.mem.ram.write(
            entry_addr,
            _RPTE_STRUCT.pack(
                phys_addr & 0xFFFF_FFFF_FFFF_FFFF,
                size | (int(direction) << 30) | (1 << 32),
            ),
        )
        coherency = self.coherency
        coherency.cpu_write(entry_addr, RPTE_BYTES)
        coherency.sync_mem(entry_addr, RPTE_BYTES)
        account.stage(Component.MAP_PAGE_TABLE, costs[1])

        account.stage(Component.MAP_OTHER, costs[2])
        live[key] = _tuple_new(
            RIommuMapping,
            (_tuple_new(RIova, (0, rentry, rid)), phys_addr, size, direction),
        )
        self.maps += 1
        return (rentry << OFFSET_BITS) | (rid << (OFFSET_BITS + RENTRY_BITS))

    def _map(
        self, rid: int, phys_addr: int, size: int, direction: DmaDirection
    ) -> RIova:
        if size <= 0:
            raise ValueError("size must be positive")
        if size > MAX_RPTE_SIZE:
            raise ValueError(f"size {size} exceeds the u30 rPTE size field")
        ring = self.device.ring(rid)

        # "locked { ... }": allocate the tail entry.
        if ring.nmapped == ring.size:
            raise RingOverflowError(
                f"ring {rid} of bdf {self.bdf:#06x} is full ({ring.size} entries)"
            )
        if (rid, ring.tail) in self._live:
            # Ring semantics promise FIFO unmap order; callers that unmap
            # out of order can leave the tail entry live even though the
            # table is not full.  Refusing (back-pressure) is safe —
            # overwriting a live rPTE would not be.
            raise RingOverflowError(
                f"ring {rid} tail entry {ring.tail} is still mapped "
                "(out-of-order unmaps left the ring fragmented)"
            )
        rentry = ring.tail
        ring.tail = (ring.tail + 1) % ring.size
        ring.nmapped += 1
        account = self.account
        costs = self._staged_costs
        account.stage(Component.IOVA_ALLOC, costs[0])

        # Initialise the rPTE, then make it visible to the walker.
        pte = RPte(phys_addr=phys_addr, size=size, direction=direction, valid=True)
        entry_addr = ring.write_pte(rentry, pte)
        self.coherency.sync_mem(entry_addr, 16)
        account.stage(Component.MAP_PAGE_TABLE, costs[1])

        account.stage(Component.MAP_OTHER, costs[2])
        iova = RIova(offset=0, rentry=rentry, rid=rid)
        self._live[(rid, rentry)] = RIommuMapping(iova, phys_addr, size, direction)
        self.maps += 1
        if TRACE.active:
            TRACE.emit(
                "map",
                layer="riommu",
                bdf=self.bdf,
                rid=rid,
                rentry=rentry,
                phys_addr=phys_addr,
                size=size,
            )
        return iova

    # -- unmap (Figure 11, right) --------------------------------------------------

    def unmap(self, iova: RIova, end_of_burst: bool = False) -> int:
        """Deprecated positional form of :meth:`unmap_request`."""
        warnings.warn(
            "RIommuDriver.unmap(iova, end_of_burst) is deprecated; use "
            "unmap_request(UnmapRequest(device_addr=iova.packed()))",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._unmap(iova, end_of_burst)

    def unmap_request(self, req: UnmapRequest) -> UnmapResult:
        """Invalidate the rPTE behind the packed rIOVA ``req.device_addr``.

        ``end_of_burst=True`` additionally invalidates the ring's single
        rIOTLB entry — one invalidation per completion burst is all the
        design ever needs.
        """
        device_addr, end_of_burst = req
        iova = unpack_iova(device_addr)
        # The mapping is keyed by (rid, rentry); the offset is free for
        # the caller to have adjusted, so normalise it away.
        phys = self._unmap(
            RIova(offset=0, rentry=iova.rentry, rid=iova.rid), end_of_burst
        )
        return _unmap_result(phys)

    def _unmap(self, iova: RIova, end_of_burst: bool) -> int:
        ring = self.device.ring(iova.rid)
        mapping = self._live.pop((iova.rid, iova.rentry), None)
        if mapping is None:
            raise KeyError(
                f"ring {iova.rid} entry {iova.rentry} is not a live mapping"
            )

        # Clear the valid bit and publish the change.
        pte = ring.read_pte(iova.rentry)
        pte.valid = False
        entry_addr = ring.write_pte(iova.rentry, pte)
        account = self.account
        costs = self._staged_costs
        account.stage(Component.UNMAP_PAGE_TABLE, costs[3])

        # "locked { r.nmapped--; }" — the whole of IOVA deallocation.
        ring.nmapped -= 1
        account.stage(Component.IOVA_FREE, costs[4])

        self.coherency.sync_mem(entry_addr, 16)
        # The rPTE is now invalid in memory; a cached rIOTLB copy of this
        # entry no longer matches its backing — flag it so the hardware
        # model (and the protection auditor) can spot stale serves.
        self.hardware.riotlb.mark_backing_invalid(self.bdf, iova.rid, iova.rentry)

        if end_of_burst:
            self.hardware.riotlb.invalidate(self.bdf, iova.rid)
            self.invalidations += 1
            account.stage(Component.IOTLB_INV, costs[5])

        account.stage(Component.UNMAP_OTHER, costs[6])
        self.unmaps += 1
        if TRACE.active:
            TRACE.emit(
                "unmap",
                layer="riommu",
                bdf=self.bdf,
                rid=iova.rid,
                rentry=iova.rentry,
                phys_addr=mapping.phys_addr,
                end_of_burst=end_of_burst,
            )
        return mapping.phys_addr

    def unmap_burst(
        self, device_addrs: Sequence[int], end_of_burst: bool = True
    ) -> List[int]:
        """Unmap a completion burst; returns the physical addresses.

        Semantically a loop of :meth:`unmap_request` calls with
        ``end_of_burst`` on the last — and that is what runs when a
        tracer is active or the columnar build is off.  The columnar
        body does the per-item real work (valid-bit clear, publish,
        ``nmapped`` decrement, stale flagging) in the same order but
        patches the rPTE bytes in place and stages each Table 1
        component once for the whole burst with an exact counted fold.
        """
        if not (_datapath.COLUMNAR_ENABLED and not TRACE.active):
            last = len(device_addrs) - 1
            return [
                self._unmap(
                    RIova(
                        offset=0,
                        rentry=(addr >> OFFSET_BITS) & MAX_RENTRY,
                        rid=(addr >> (OFFSET_BITS + RENTRY_BITS)) & MAX_RID,
                    ),
                    end_of_burst and i == last,
                )
                for i, addr in enumerate(device_addrs)
            ]

        live = self._live
        riotlb = self.hardware.riotlb
        bdf = self.bdf
        rings = self.device.rings
        phys_addrs: List[int] = []
        last = len(device_addrs) - 1
        done = 0
        invalidated = False
        try:
            for i, addr in enumerate(device_addrs):
                rid = (addr >> (OFFSET_BITS + RENTRY_BITS)) & MAX_RID
                rentry = (addr >> OFFSET_BITS) & MAX_RENTRY
                if not 0 <= rid < len(rings):
                    raise IndexError(f"rid {rid} out of range [0, {len(rings)})")
                ring = rings[rid]
                mapping = live.pop((rid, rentry), None)
                if mapping is None:
                    raise KeyError(
                        f"ring {rid} entry {rentry} is not a live mapping"
                    )

                # Clear the valid bit (word1 bit 32 = byte 12 bit 0) in
                # place.  Our own encodes are canonical, so this equals
                # the scalar decode → valid=False → encode round-trip.
                ram = ring.mem.ram
                entry_addr = ring.table_addr + rentry * RPTE_BYTES
                raw = ram.read(entry_addr, RPTE_BYTES)
                ram.write(
                    entry_addr, raw[:12] + bytes((raw[12] & 0xFE,)) + raw[13:]
                )
                coherency = ring.coherency
                coherency.cpu_write(entry_addr, RPTE_BYTES)
                ring.nmapped -= 1
                coherency.sync_mem(entry_addr, RPTE_BYTES)
                riotlb.mark_backing_invalid(bdf, rid, rentry)
                if end_of_burst and i == last:
                    riotlb.invalidate(bdf, rid)
                    self.invalidations += 1
                    invalidated = True
                phys_addrs.append(mapping.phys_addr)
                done += 1
        finally:
            if done:
                account = self.account
                costs = self._staged_costs
                account.stage_many(Component.UNMAP_PAGE_TABLE, costs[3], done)
                account.stage_many(Component.IOVA_FREE, costs[4], done)
                if done == 1:
                    # scalar first-touch order: ... INV before OTHER
                    if invalidated:
                        account.stage(Component.IOTLB_INV, costs[5])
                    account.stage(Component.UNMAP_OTHER, costs[6])
                else:
                    # OTHER first touched at item 1, INV only at item n
                    account.stage_many(Component.UNMAP_OTHER, costs[6], done)
                    if invalidated:
                        account.stage(Component.IOTLB_INV, costs[5])
                self.unmaps += done
        return phys_addrs

    # -- introspection / teardown -------------------------------------------------

    def live_mappings(self, rid: Optional[int] = None) -> int:
        """Live mappings, optionally restricted to one ring."""
        if rid is None:
            return len(self._live)
        return sum(1 for key in self._live if key[0] == rid)

    def nmapped(self, rid: int) -> int:
        """The ring's software ``nmapped`` counter."""
        return self.device.ring(rid).nmapped

    def shutdown(self) -> None:
        """Invalidate everything and detach from the hardware."""
        self._live.clear()
        self.hardware.detach_device(self.bdf)
