"""The baseline IOMMU's 4-level radix I/O page table (paper §2.2).

Tables are real 4 KB pages in the simulated physical memory; entries
are 64-bit words.  CPU-side updates go through the coherency domain
(the Linux driver must flush cachelines because the I/O page walk on
the paper's testbed is not coherent with the CPU caches), and
hardware-side walks read the same memory through the coherency domain,
so a missing flush is *detected*, not just undercharged.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Tuple

from repro.dma import DmaDirection
from repro.faults import PermissionFault, TranslationFault
from repro.memory.address import (
    PAGE_SHIFT,
    PAGE_SIZE,
    RADIX_LEVEL_BITS,
    RADIX_LEVELS,
    page_base,
    page_offset,
    radix_indices,
)
from repro.memory.coherency import CoherencyDomain
from repro.memory.physical import MemorySystem

PTE_PRESENT = 1 << 0
PTE_READ = 1 << 1  # device may read memory through this mapping (Tx)
PTE_WRITE = 1 << 2  # device may write memory through this mapping (Rx)
PTE_FLAG_MASK = PTE_PRESENT | PTE_READ | PTE_WRITE
PTE_ADDR_MASK = ~(PAGE_SIZE - 1)


#: address bits above one leaf table's reach (4 KiB pages x 512 entries)
_LEAF_TABLE_SHIFT = PAGE_SHIFT + RADIX_LEVEL_BITS
_LEAF_INDEX_MASK = (1 << RADIX_LEVEL_BITS) - 1


def perms_from_direction(direction: DmaDirection) -> int:
    """Convert a DMA direction into PTE permission bits."""
    # Table lookup: the IntFlag property accessors build a new member
    # per call, and this runs on every mapped page.
    return _PERMS_BY_DIRECTION[direction.value]


# Enumerated explicitly: iterating an IntFlag yields only the single-bit
# members, which would miss the composite BIDIRECTIONAL.
_PERMS_BY_DIRECTION = {
    direction.value: (PTE_READ if direction.device_reads else 0)
    | (PTE_WRITE if direction.device_writes else 0)
    for direction in (
        DmaDirection.TO_DEVICE,
        DmaDirection.FROM_DEVICE,
        DmaDirection.BIDIRECTIONAL,
    )
}


def direction_allowed(perms: int, access: DmaDirection) -> bool:
    """True if PTE permission bits allow an access of the given direction."""
    # Raw-int form of access.device_reads/device_writes: this runs once
    # per translation, and IntFlag ``&`` builds a new member each call.
    bits = access.value
    if bits & 1 and not perms & PTE_READ:  # device reads (TO_DEVICE)
        return False
    if bits & 2 and not perms & PTE_WRITE:  # device writes (FROM_DEVICE)
        return False
    return True


@dataclass(slots=True)
class PageTableOpStats:
    """What one map/unmap page-table operation actually did."""

    entries_written: int = 0
    tables_allocated: int = 0
    levels_touched: int = 0


class WalkResult(tuple):
    """Outcome of a successful hardware table walk.

    Tuple-backed: one is built per IOTLB miss, and the C-level tuple
    constructor is several times cheaper than a dataclass ``__init__``.
    """

    __slots__ = ()

    def __new__(cls, frame_addr: int, perms: int, levels_read: int) -> "WalkResult":
        return tuple.__new__(cls, (frame_addr, perms, levels_read))

    def __getnewargs__(self):
        # Pickle support for the custom positional __new__ (simulation
        # checkpoints serialise cached walk results).
        return tuple(self)

    frame_addr: int = property(itemgetter(0))
    perms: int = property(itemgetter(1))
    levels_read: int = property(itemgetter(2))

    def __repr__(self) -> str:
        return (
            f"WalkResult(frame_addr={self[0]}, perms={self[1]}, "
            f"levels_read={self[2]})"
        )


class RadixPageTable:
    """A per-*domain* 4-level radix tree of IOVA=>PA translations.

    In VT-d terms this is a protection domain: one or more devices may
    be attached to the same table, and cached translations are tagged
    with the table's ``domain_id``, so an unmap's invalidation covers
    every attached device at once.  Domain identifiers are scoped to
    one remapping unit, so the :class:`~repro.iommu.hardware.Iommu`
    whose IOTLB they tag hands them out
    (:meth:`~repro.iommu.hardware.Iommu.allocate_domain_id`).
    """

    def __init__(
        self, mem: MemorySystem, coherency: CoherencyDomain, domain_id: int
    ) -> None:
        self.mem = mem
        self.coherency = coherency
        self.root_addr = self._alloc_table()
        #: VT-d domain identifier tagging this table's IOTLB entries
        self.domain_id = domain_id
        #: number of currently-present leaf mappings
        self.mapped_pages = 0
        #: resolved leaf-table addresses keyed by ``iova >> 21``.
        #: Intermediate tables are only reclaimed when the domain dies
        #: (see :meth:`unmap_page`), so a resolved leaf-table address
        #: stays valid for this object's whole lifetime; the cache skips
        #: re-reading three intermediate entries per map/unmap without
        #: changing any observable stat (those reads go through the OS
        #: view of memory, not the coherency domain).
        self._leaf_tables: Dict[int, int] = {}

    def _alloc_table(self) -> int:
        """Allocate and zero one table page; returns its physical address."""
        addr = self.mem.allocator.alloc_page()
        # Table pages are zero on allocation (PhysicalMemory reads as zero),
        # but the hardware must not see stale lines either: the driver
        # flushes the whole new table page.
        self.coherency.cpu_write(addr, PAGE_SIZE)
        self.coherency.cache_line_flush(addr, PAGE_SIZE)
        return addr

    # -- CPU (driver) side --------------------------------------------------

    def map_page(
        self, iova: int, phys_addr: int, direction: DmaDirection
    ) -> PageTableOpStats:
        """Install a translation from ``iova``'s page to ``phys_addr``'s frame.

        Walks (and creates, where missing) the intermediate tables, then
        writes the leaf PTE and synchronises memory so the hardware
        walker sees the update.
        """
        stats = PageTableOpStats()
        key = iova >> _LEAF_TABLE_SHIFT
        table_addr = self._leaf_tables.get(key)
        if table_addr is not None:
            # Cached leaf table: the intermediates exist (they are never
            # freed), so the walk below would read them back unchanged.
            stats.levels_touched = RADIX_LEVELS
        else:
            indices = radix_indices(iova)
            table_addr = self.root_addr
            for level in range(RADIX_LEVELS - 1):
                stats.levels_touched += 1
                entry_addr = table_addr + indices[level] * 8
                entry = self.mem.ram.read_u64(entry_addr)
                if not entry & PTE_PRESENT:
                    child = self._alloc_table()
                    stats.tables_allocated += 1
                    entry = child | PTE_PRESENT
                    self._write_entry(entry_addr, entry)
                    stats.entries_written += 1
                table_addr = entry & PTE_ADDR_MASK
            self._leaf_tables[key] = table_addr
            stats.levels_touched += 1

        leaf_addr = table_addr + ((iova >> PAGE_SHIFT) & _LEAF_INDEX_MASK) * 8
        existing = self.mem.ram.read_u64(leaf_addr)
        if existing & PTE_PRESENT:
            raise ValueError(f"IOVA page {iova:#x} is already mapped")
        pte = page_base(phys_addr) | perms_from_direction(direction) | PTE_PRESENT
        self._write_entry(leaf_addr, pte)
        stats.entries_written += 1
        self.mapped_pages += 1
        return stats

    def map_page_fast(
        self, iova: int, phys_addr: int, direction: DmaDirection
    ) -> Tuple[int, int]:
        """Counts-only :meth:`map_page` for the columnar datapath.

        Same memory writes, same coherency traffic, same errors — but
        when the leaf table is already resolved it skips the
        ``PageTableOpStats`` allocation and returns bare
        ``(entries_written, tables_allocated)`` counts.
        """
        table_addr = self._leaf_tables.get(iova >> _LEAF_TABLE_SHIFT)
        if table_addr is None:
            op = self.map_page(iova, phys_addr, direction)
            return op.entries_written, op.tables_allocated
        leaf_addr = table_addr + ((iova >> PAGE_SHIFT) & _LEAF_INDEX_MASK) * 8
        if self.mem.ram.read_u64(leaf_addr) & PTE_PRESENT:
            raise ValueError(f"IOVA page {iova:#x} is already mapped")
        pte = page_base(phys_addr) | _PERMS_BY_DIRECTION[direction.value] | PTE_PRESENT
        self._write_entry(leaf_addr, pte)
        self.mapped_pages += 1
        return 1, 0

    def unmap_page(self, iova: int) -> PageTableOpStats:
        """Clear the leaf PTE for ``iova``'s page.

        Intermediate tables are left in place, as the Linux driver does
        on the hot path (they are reclaimed only when the domain dies).
        """
        stats = PageTableOpStats()
        key = iova >> _LEAF_TABLE_SHIFT
        table_addr = self._leaf_tables.get(key)
        if table_addr is not None:
            stats.levels_touched = RADIX_LEVELS
        else:
            indices = radix_indices(iova)
            table_addr = self.root_addr
            for level in range(RADIX_LEVELS - 1):
                stats.levels_touched += 1
                entry_addr = table_addr + indices[level] * 8
                entry = self.mem.ram.read_u64(entry_addr)
                if not entry & PTE_PRESENT:
                    raise TranslationFault(
                        f"IOVA page {iova:#x} is not mapped", iova=iova
                    )
                table_addr = entry & PTE_ADDR_MASK
            self._leaf_tables[key] = table_addr
            stats.levels_touched += 1

        leaf_addr = table_addr + ((iova >> PAGE_SHIFT) & _LEAF_INDEX_MASK) * 8
        existing = self.mem.ram.read_u64(leaf_addr)
        if not existing & PTE_PRESENT:
            raise TranslationFault(f"IOVA page {iova:#x} is not mapped", iova=iova)
        self._write_entry(leaf_addr, 0)
        stats.entries_written += 1
        self.mapped_pages -= 1
        return stats

    def _write_entry(self, entry_addr: int, value: int) -> None:
        """Write one PTE and make it visible to the hardware walker."""
        self.mem.ram.write_u64(entry_addr, value)
        self.coherency.cpu_write(entry_addr, 8)
        self.coherency.sync_mem(entry_addr, 8)

    # -- hardware (walker) side ------------------------------------------------

    def walk(self, iova: int, access: DmaDirection) -> WalkResult:
        """Hardware page walk: resolve ``iova`` or raise an I/O page fault."""
        indices = radix_indices(iova)
        table_addr = self.root_addr
        hardware_read = self.coherency.hardware_read
        read_u64 = self.mem.ram.read_u64
        # Intermediate levels first, leaf handling after the loop: one
        # per-level branch fewer on every strict-mode IOTLB miss.
        for level in range(RADIX_LEVELS - 1):
            entry_addr = table_addr + indices[level] * 8
            hardware_read(entry_addr, 8)
            entry = read_u64(entry_addr)
            if not entry & PTE_PRESENT:
                raise TranslationFault(
                    f"walk failed at level {level + 1} for IOVA {iova:#x}", iova=iova
                )
            table_addr = entry & PTE_ADDR_MASK
        entry_addr = table_addr + indices[RADIX_LEVELS - 1] * 8
        hardware_read(entry_addr, 8)
        entry = read_u64(entry_addr)
        if not entry & PTE_PRESENT:
            raise TranslationFault(
                f"walk failed at level {RADIX_LEVELS} for IOVA {iova:#x}", iova=iova
            )
        perms = entry & PTE_FLAG_MASK
        if not direction_allowed(perms, access):
            raise PermissionFault(f"IOVA {iova:#x} does not permit {access!r}", iova=iova)
        return WalkResult(
            frame_addr=entry & PTE_ADDR_MASK, perms=perms, levels_read=RADIX_LEVELS
        )

    # -- introspection -----------------------------------------------------------

    def resolve(self, iova: int) -> int:
        """Driver-side lookup of the physical address mapped at ``iova``.

        Unlike :meth:`walk` this does not touch the coherency domain or
        enforce permissions — it reads the structures the way the OS
        does (through its own cache).
        """
        indices = radix_indices(iova)
        table_addr = self.root_addr
        for level in range(RADIX_LEVELS):
            entry = self.mem.ram.read_u64(table_addr + indices[level] * 8)
            if not entry & PTE_PRESENT:
                raise TranslationFault(f"IOVA page {iova:#x} is not mapped", iova=iova)
            if level == RADIX_LEVELS - 1:
                return (entry & PTE_ADDR_MASK) | page_offset(iova)
            table_addr = entry & PTE_ADDR_MASK
        raise AssertionError("unreachable")
