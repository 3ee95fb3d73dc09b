"""The DMA path: how device memory accesses reach physical memory.

Devices never touch :class:`~repro.memory.physical.PhysicalMemory`
directly; every access goes through a :class:`DmaBus` configured with a
translation backend:

* :class:`IdentityBackend` — IOMMU disabled (the paper's ``none`` mode);
  device addresses *are* physical addresses.
* :class:`IommuBackend` — baseline IOMMU; device addresses are IOVAs
  translated page-by-page through the radix tables / IOTLB.
* :class:`RIommuBackend` — rIOMMU; device addresses are packed rIOVAs
  translated through the flat tables / rIOTLB.

The bus is where protection becomes real: a DMA to an unmapped or
out-of-bounds address raises an I/O page fault out of the device model,
exactly where the real hardware would abort the transaction.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.riotlb import RIommuHardware
from repro.core.structures import unpack_iova
from repro.dma import DmaDirection
from repro.faults import PermissionFault
from repro.iommu.hardware import Iommu
from repro.iommu.iotlb import IotlbEntry
from repro.iommu.page_table import direction_allowed
from repro.memory.address import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, page_offset
from repro.memory.physical import MemorySystem
from repro.obs.tracer import TRACE


class TranslationBackend(abc.ABC):
    """Maps a device-visible address range to physical ranges."""

    @abc.abstractmethod
    def translate_range(
        self, bdf: int, addr: int, size: int, direction: DmaDirection
    ) -> List[Tuple[int, int]]:
        """Return [(phys_addr, length), ...] covering ``size`` bytes at ``addr``."""

    def translate_sg(
        self, bdf: int, addr: int, size: int, direction: DmaDirection
    ) -> List[Tuple[int, int]]:
        """Scatter-gather translation: extents for a bulk copy.

        Like :meth:`translate_range`, but backends that translate
        page-by-page merge physically-contiguous runs into single
        extents so the copy layer touches each run once.  Identity and
        rIOMMU backends already produce one extent per access, so the
        default simply defers to :meth:`translate_range`.
        """
        return self.translate_range(bdf, addr, size, direction)


class IdentityBackend(TranslationBackend):
    """No IOMMU: device addresses are physical addresses."""

    def translate_range(
        self, bdf: int, addr: int, size: int, direction: DmaDirection
    ) -> List[Tuple[int, int]]:
        return [(addr, size)]


class IommuBackend(TranslationBackend):
    """Baseline IOMMU: translate each page the access touches.

    With :meth:`enable_memo` (opted into by the network driver, *not*
    on by default), :meth:`translate_sg` resolves repeated accesses to
    the same (bdf, vpn) within a burst from a local memo instead of
    re-entering the full IOMMU datapath.  The memo replays every observable side effect
    of the IOTLB-hit path (counters, traces, permission checks) so
    results and stats are unchanged; it is dropped wholesale whenever
    the IOMMU's attachment epoch or the IOTLB's invalidation generation
    moves, so it can never outlive an unmap or invalidation — the
    deferred-mode vulnerability window is exactly as wide as before.
    :meth:`translate_range` is the scalar reference: one
    :meth:`Iommu.translate` per page, no memo.  Only the columnar
    build's :class:`DmaBus` calls :meth:`translate_sg`.
    """

    def __init__(self, iommu: Iommu) -> None:
        self.iommu = iommu
        self.memo_enabled = False
        self._memo: Dict[Tuple[int, int], IotlbEntry] = {}
        self._memo_token: Optional[Tuple[int, int]] = None

    def enable_memo(self) -> None:
        """Opt in to the per-burst translation memo."""
        self.memo_enabled = True

    def translate_range(
        self, bdf: int, addr: int, size: int, direction: DmaDirection
    ) -> List[Tuple[int, int]]:
        translate = self.iommu.translate
        ranges: List[Tuple[int, int]] = []
        pos = 0
        while pos < size:
            chunk = min(PAGE_SIZE - page_offset(addr + pos), size - pos)
            phys = translate(bdf, addr + pos, direction)
            ranges.append((phys, chunk))
            pos += chunk
        return ranges

    def translate_sg(
        self, bdf: int, addr: int, size: int, direction: DmaDirection
    ) -> List[Tuple[int, int]]:
        """Batched per-page translation with contiguous-extent merging.

        One IOTLB (or memo) probe per 4 KiB page — every observable side
        effect of the scalar loop is replayed per page, and faults still
        raise at the exact faulting page — but the per-page Python
        dispatch through ``translate``/``translate_range`` is inlined,
        and pages that resolve to adjacent frames are merged into one
        extent for the bulk copy layer.
        """
        iommu = self.iommu
        memo = None
        if self.memo_enabled:
            token = (iommu.epoch, iommu.iotlb.generation)
            if token != self._memo_token:
                self._memo.clear()
                self._memo_token = token
            memo = self._memo
        translate = iommu.translate
        iommu_stats = iommu.stats
        iotlb = iommu.iotlb
        iotlb_stats = iotlb.stats
        coherency_stats = iommu.coherency.stats
        trace_hook = iommu.trace_hook
        # Loop-invariant: emits inside this call cannot toggle the tracer.
        trace_active = TRACE.active
        ranges: List[Tuple[int, int]] = []
        run_phys = 0  # physical start of the extent being built
        run_len = 0
        next_phys = -1  # phys addr the next chunk must hit to extend the run
        pos = 0
        while pos < size:
            a = addr + pos
            chunk = PAGE_SIZE - (a & PAGE_MASK)
            rem = size - pos
            if chunk > rem:
                chunk = rem
            if memo is not None:
                vpn = a >> PAGE_SHIFT
                entry = memo.get((bdf, vpn))
                if entry is not None:
                    # Memo hit: replay the IOTLB-hit path's observables.
                    # Only unobservable state differs: LRU recency is not
                    # refreshed, and the context-table staleness check
                    # is skipped (context entries are synced when written).
                    iommu_stats.translations += 1
                    if trace_hook is not None:
                        trace_hook(bdf, vpn)
                    if trace_active:
                        TRACE.emit("translate", layer="iommu", bdf=bdf, iova=a)
                        TRACE.emit("iotlb_hit", layer="iommu", bdf=bdf, vpn=vpn)
                        if not entry.backing_valid:
                            TRACE.emit("iotlb_stale", layer="iommu", bdf=bdf, vpn=vpn)
                    coherency_stats.hardware_reads += 2
                    iotlb_stats.hits += 1
                    if not entry.backing_valid:
                        iotlb_stats.stale_hits += 1
                    if not direction_allowed(entry.perms, direction):
                        raise PermissionFault(
                            f"IOVA {a:#x} does not permit {direction!r}",
                            bdf=bdf,
                            iova=a,
                        )
                    phys = entry.frame_addr | (a & PAGE_MASK)
                else:
                    phys = translate(bdf, a, direction)
                    cached = iotlb.peek(iommu.page_table_of(bdf).domain_id, vpn)
                    if cached is not None:
                        memo[(bdf, vpn)] = cached
            else:
                phys = translate(bdf, a, direction)
            if phys == next_phys:
                run_len += chunk
            else:
                if run_len:
                    ranges.append((run_phys, run_len))
                run_phys = phys
                run_len = chunk
            next_phys = phys + chunk
            pos += chunk
        if run_len:
            ranges.append((run_phys, run_len))
        return ranges


class RIommuBackend(TranslationBackend):
    """rIOMMU: device addresses are packed rIOVAs.

    A single rPTE maps a contiguous physical region, so one access needs
    one translation — but the *last* byte is also translated so that the
    fine-grained bounds check covers the whole access, as the hardware's
    length-aware transaction check would.  ``columnar`` is the
    machine's datapath build.
    """

    def __init__(self, hardware: RIommuHardware, columnar: bool = True) -> None:
        self.hardware = hardware
        self.columnar = columnar

    def translate_range(
        self, bdf: int, addr: int, size: int, direction: DmaDirection
    ) -> List[Tuple[int, int]]:
        if self.columnar:
            # Folded start+end translation: rtranslate_span serves a hit
            # and a prefetched ring advance itself, and runs the same
            # scalar pair as below for cold/sync-walk/fault/traced cases.
            return [(self.hardware.rtranslate_span(bdf, addr, size, direction), size)]
        iova = unpack_iova(addr)
        phys = self.hardware.rtranslate(bdf, iova, direction)
        if size > 1:
            # Bounds-check the end of the access (no extra rIOTLB traffic
            # in real hardware — the entry is already current).
            self.hardware.rtranslate(
                bdf, iova.with_offset(iova.offset + size - 1), direction
            )
        return [(phys, size)]


class SwptBackend(TranslationBackend):
    """Software pass-through (paper §5.1 methodology validation).

    The IOMMU is on, and a page table maps the *entire* physical memory
    with IOVA == PA.  Every DMA therefore goes through the IOTLB — and,
    with a working set larger than the IOTLB, misses on nearly every
    packet — yet translates to the identical address.  The paper used
    this against HWpt (hardware pass-through: IOMMU bypasses the IOTLB
    entirely) to show that IOTLB misses are performance-invisible at
    NIC latencies.
    """

    def __init__(self, iotlb) -> None:
        from repro.iommu.iotlb import Iotlb, IotlbEntry

        self.iotlb: "Iotlb" = iotlb
        self._entry_cls = IotlbEntry
        #: radix levels "walked" on each miss, for accounting
        self.walk_levels = 0

    def translate_range(
        self, bdf: int, addr: int, size: int, direction: DmaDirection
    ) -> List[Tuple[int, int]]:
        ranges: List[Tuple[int, int]] = []
        pos = 0
        while pos < size:
            chunk = min(PAGE_SIZE - page_offset(addr + pos), size - pos)
            vpn = (addr + pos) >> 12
            entry = self.iotlb.lookup(bdf, vpn)
            if entry is None:
                # The identity table always resolves; a real walk reads
                # four levels.
                self.walk_levels += 4
                self.iotlb.insert(
                    self._entry_cls(tag=bdf, vpn=vpn, frame_addr=vpn << 12, perms=0b111)
                )
            ranges.append((addr + pos, chunk))
            pos += chunk
        return ranges


class HwptBackend(IdentityBackend):
    """Hardware pass-through: IOMMU enabled but translating 1:1 without
    consulting the IOTLB or any page table (paper §5.1)."""


@dataclass
class DmaBusStats:
    """Counts of device-initiated reads/writes and moved bytes."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0


class DmaBus:
    """Routes device DMAs through a translation backend to memory.

    The bus takes its datapath build from ``mem``: the columnar build
    moves each access as batched translation plus bulk copies
    (identical model cycles and fault behaviour, fewer Python
    dispatches); the scalar build translates and copies range by range.
    """

    def __init__(self, mem: MemorySystem, backend: TranslationBackend) -> None:
        self.mem = mem
        self.backend = backend
        self.stats = DmaBusStats()
        self.columnar = mem.columnar

    def enable_translation_memo(self) -> None:
        """Opt in to the backend's per-burst translation memo, if any.

        Only backends that expose ``enable_memo`` (the baseline
        :class:`IommuBackend`) participate; for the rest this is a
        no-op.  Kept opt-in so measurement rigs that study raw IOTLB
        behaviour (e.g. the miss-penalty experiment) see an unmediated
        datapath.
        """
        enable = getattr(self.backend, "enable_memo", None)
        if enable is not None:
            enable()

    def dma_read(self, bdf: int, addr: int, size: int) -> bytes:
        """Device reads ``size`` bytes from device-address ``addr`` (Tx)."""
        if size <= 0:
            raise ValueError("size must be positive")
        if TRACE.active:
            TRACE.emit("dma_read", bdf=bdf, addr=addr, size=size)
        if self.columnar:
            data = self.mem.ram.read_bulk(
                self.backend.translate_sg(bdf, addr, size, DmaDirection.TO_DEVICE)
            )
        else:
            out = bytearray()
            for phys, length in self.backend.translate_range(
                bdf, addr, size, DmaDirection.TO_DEVICE
            ):
                out += self.mem.ram.read(phys, length)
            data = bytes(out)
        self.stats.reads += 1
        self.stats.bytes_read += size
        return data

    def dma_write(self, bdf: int, addr: int, data: bytes) -> None:
        """Device writes ``data`` to device-address ``addr`` (Rx)."""
        if not data:
            raise ValueError("data must be non-empty")
        if TRACE.active:
            TRACE.emit("dma_write", bdf=bdf, addr=addr, size=len(data))
        if self.columnar:
            # Translate the whole access first (faults before any byte
            # lands, as the scalar path's eager translate_range does),
            # then copy every extent in one bulk call.
            self.mem.ram.write_bulk(
                self.backend.translate_sg(
                    bdf, addr, len(data), DmaDirection.FROM_DEVICE
                ),
                data,
            )
        else:
            pos = 0
            for phys, length in self.backend.translate_range(
                bdf, addr, len(data), DmaDirection.FROM_DEVICE
            ):
                self.mem.ram.write(phys, data[pos : pos + length])
                pos += length
        self.stats.writes += 1
        self.stats.bytes_written += len(data)

    # -- scatter-gather bulk calls (one call per descriptor) ------------

    def dma_read_sg(self, bdf: int, segments: List[Tuple[int, int]]) -> bytes:
        """Device gathers ``[(addr, size), ...]`` segments into one buffer.

        Equivalent to concatenating :meth:`dma_read` per segment — same
        per-segment stats, same fault points (segment ``i`` translates
        fully before segment ``i+1`` is touched) — in one call.
        """
        if not self.columnar:
            return b"".join(self.dma_read(bdf, addr, size) for addr, size in segments)
        backend = self.backend
        ram = self.mem.ram
        stats = self.stats
        parts: List[bytes] = []
        for addr, size in segments:
            if size <= 0:
                raise ValueError("size must be positive")
            if TRACE.active:
                TRACE.emit("dma_read", bdf=bdf, addr=addr, size=size)
            parts.append(
                ram.read_bulk(
                    backend.translate_sg(bdf, addr, size, DmaDirection.TO_DEVICE)
                )
            )
            stats.reads += 1
            stats.bytes_read += size
        return b"".join(parts)

    def dma_write_sg(self, bdf: int, parts: List[Tuple[int, bytes]]) -> None:
        """Device scatters ``[(addr, data), ...]`` chunks in order.

        Equivalent to :meth:`dma_write` per chunk: each segment is
        translated in full before its bytes land, so a fault leaves
        exactly the earlier segments written — the scalar behaviour.
        """
        if not self.columnar:
            for addr, chunk in parts:
                self.dma_write(bdf, addr, chunk)
            return
        backend = self.backend
        ram = self.mem.ram
        stats = self.stats
        for addr, chunk in parts:
            if not chunk:
                raise ValueError("data must be non-empty")
            if TRACE.active:
                TRACE.emit("dma_write", bdf=bdf, addr=addr, size=len(chunk))
            ram.write_bulk(
                backend.translate_sg(bdf, addr, len(chunk), DmaDirection.FROM_DEVICE),
                chunk,
            )
            stats.writes += 1
            stats.bytes_written += len(chunk)


class DmaEngine:
    """A device's bulk DMA front-end: one call per descriptor.

    Thin per-device binding of a :class:`DmaBus` — device models hold
    one and issue whole-descriptor gathers/scatters instead of looping
    over segments (and, inside the bus, pages) themselves.
    """

    __slots__ = ("bus", "bdf")

    def __init__(self, bus: DmaBus, bdf: int) -> None:
        self.bus = bus
        self.bdf = bdf

    def read(self, addr: int, size: int) -> bytes:
        """Bulk-read one contiguous device-address range."""
        return self.bus.dma_read(self.bdf, addr, size)

    def write(self, addr: int, data: bytes) -> None:
        """Bulk-write one contiguous device-address range."""
        self.bus.dma_write(self.bdf, addr, data)

    def read_gather(self, segments: List[Tuple[int, int]]) -> bytes:
        """Gather a descriptor's ``[(addr, size), ...]`` segment list."""
        return self.bus.dma_read_sg(self.bdf, segments)

    def write_scatter(self, parts: List[Tuple[int, bytes]]) -> None:
        """Scatter ``[(addr, data), ...]`` chunks across a descriptor."""
        self.bus.dma_write_sg(self.bdf, parts)
