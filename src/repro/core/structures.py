"""The rIOMMU data structures (paper Figure 9).

The hardware-visible structures — the per-device rRING array and the
flat rPTE tables — are real bytes in the simulated physical memory, so
the hardware walker reads exactly what the software driver wrote (with
coherency enforced in between).  The software-only fields (``tail``,
``nmapped``) live on the Python objects, as the paper notes they are
"not architected and unknown to the rIOMMU hardware".

Field widths follow Figure 9:

* rPTE    = 128 bits: phys_addr u64 | size u30 | dir u2 | valid u1
* rIOVA   =  64 bits: offset u30 | rentry u18 | rid u16
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Optional

from repro.dma import DmaDirection
from repro.memory.coherency import CoherencyDomain
from repro.memory.physical import MemorySystem

RPTE_BYTES = 16  # 128-bit entries

OFFSET_BITS = 30
RENTRY_BITS = 18
RID_BITS = 16

MAX_OFFSET = (1 << OFFSET_BITS) - 1
MAX_RENTRY = (1 << RENTRY_BITS) - 1
MAX_RID = (1 << RID_BITS) - 1
#: maximum mapping size encodable in the u30 rPTE size field
MAX_RPTE_SIZE = (1 << 30) - 1

#: the two 64-bit little-endian words of an rPTE
_RPTE_STRUCT = struct.Struct("<QQ")

#: direction field decode table — bits 0b00 read back as BIDIRECTIONAL
#: (unencoded legacy entries), matching ``DmaDirection(bits) if bits``
_DIR_BY_BITS = (
    DmaDirection.BIDIRECTIONAL,
    DmaDirection.TO_DEVICE,
    DmaDirection.FROM_DEVICE,
    DmaDirection.BIDIRECTIONAL,
)


def pack_iova(offset: int, rentry: int, rid: int) -> int:
    """Pack the rIOVA fields into a 64-bit integer (Figure 9d)."""
    if not 0 <= offset <= MAX_OFFSET:
        raise ValueError(f"offset {offset} exceeds u30")
    if not 0 <= rentry <= MAX_RENTRY:
        raise ValueError(f"rentry {rentry} exceeds u18")
    if not 0 <= rid <= MAX_RID:
        raise ValueError(f"rid {rid} exceeds u16")
    return offset | (rentry << OFFSET_BITS) | (rid << (OFFSET_BITS + RENTRY_BITS))


def unpack_iova(iova: int) -> "RIova":
    """Split a packed 64-bit rIOVA into its fields."""
    return RIova(
        offset=iova & MAX_OFFSET,
        rentry=(iova >> OFFSET_BITS) & MAX_RENTRY,
        rid=(iova >> (OFFSET_BITS + RENTRY_BITS)) & MAX_RID,
    )


class RIova(tuple):
    """Decoded rIOVA (Figure 9d).

    Tuple-backed: the rIOMMU driver builds one per map, and the C-level
    tuple constructor beats a frozen dataclass's guarded ``__setattr__``
    stores by a wide margin on that path.
    """

    __slots__ = ()

    def __new__(cls, offset: int, rentry: int, rid: int) -> "RIova":
        return tuple.__new__(cls, (offset, rentry, rid))

    def __getnewargs__(self):
        # Spell out the __new__ args for pickle (simulation checkpoints
        # carry these records in the driver's live-mapping table).
        return tuple(self)

    offset: int = property(itemgetter(0))
    rentry: int = property(itemgetter(1))
    rid: int = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"RIova(offset={self[0]!r}, rentry={self[1]!r}, rid={self[2]!r})"

    def packed(self) -> int:
        """Re-pack into the 64-bit wire format."""
        return pack_iova(self[0], self[1], self[2])

    def with_offset(self, offset: int) -> "RIova":
        """Same ring entry, different offset (callers may adjust offsets
        freely within the mapped size — paper §4, map return value)."""
        return tuple.__new__(RIova, (offset, self[1], self[2]))


@dataclass
class RPte:
    """Decoded flat-table entry (Figure 9c)."""

    phys_addr: int = 0
    size: int = 0
    direction: DmaDirection = DmaDirection.BIDIRECTIONAL
    valid: bool = False

    def encode(self) -> bytes:
        """Encode to the 128-bit in-memory format."""
        word0 = self.phys_addr & ((1 << 64) - 1)
        word1 = (self.size & MAX_RPTE_SIZE) | (int(self.direction) << 30) | (
            int(self.valid) << 32
        )
        return _RPTE_STRUCT.pack(word0, word1)

    @classmethod
    def decode(cls, raw: bytes) -> "RPte":
        """Decode from the 128-bit in-memory format."""
        if len(raw) != RPTE_BYTES:
            raise ValueError(f"rPTE must be {RPTE_BYTES} bytes, got {len(raw)}")
        word0, word1 = _RPTE_STRUCT.unpack(raw)
        return cls(
            phys_addr=word0,
            size=word1 & MAX_RPTE_SIZE,
            direction=_DIR_BY_BITS[(word1 >> 30) & 0x3],
            valid=bool((word1 >> 32) & 1),
        )

    def copy(self) -> "RPte":
        """Value copy (the rIOTLB holds copies, not references)."""
        return RPte(self.phys_addr, self.size, self.direction, self.valid)


class RRing:
    """One flat page table (Figure 9b): an in-memory array of rPTEs.

    ``tail`` and ``nmapped`` are the software-only fields the driver
    uses; the hardware only ever reads the rPTE array itself.
    """

    def __init__(self, mem: MemorySystem, coherency: CoherencyDomain, size: int) -> None:
        if not 1 <= size <= MAX_RENTRY + 1:
            raise ValueError(f"ring size must be in [1, {MAX_RENTRY + 1}], got {size}")
        self.mem = mem
        self.coherency = coherency
        self.size = size
        self.table_addr = mem.allocator.alloc_buffer(size * RPTE_BYTES)
        mem.allocator.pin(self.table_addr, size * RPTE_BYTES)
        # software-only:
        self.tail = 0
        self.nmapped = 0

    def entry_addr(self, rentry: int) -> int:
        """Physical address of rPTE number ``rentry``."""
        if not 0 <= rentry < self.size:
            raise IndexError(f"rentry {rentry} out of range [0, {self.size})")
        return self.table_addr + rentry * RPTE_BYTES

    # -- software (driver) access ------------------------------------------

    def write_pte(self, rentry: int, pte: RPte) -> int:
        """CPU-side store of an rPTE; returns the entry address for sync."""
        addr = self.entry_addr(rentry)
        self.mem.ram.write(addr, pte.encode())
        self.coherency.cpu_write(addr, RPTE_BYTES)
        return addr

    def read_pte(self, rentry: int) -> RPte:
        """CPU-side load of an rPTE (driver's own view)."""
        return RPte.decode(self.mem.ram.read(self.entry_addr(rentry), RPTE_BYTES))

    # -- hardware (walker) access ----------------------------------------------

    def hardware_read_pte(self, rentry: int) -> RPte:
        """Walker load of an rPTE; checks coherency."""
        addr = self.entry_addr(rentry)
        self.coherency.hardware_read(addr, RPTE_BYTES)
        return RPte.decode(self.mem.ram.read(addr, RPTE_BYTES))


#: bytes per rRING descriptor in the memory-resident rDEVICE array
RRING_ENTRY_BYTES = 16
#: rRING descriptors per rDEVICE page
RDEVICE_CAPACITY = 4096 // RRING_ENTRY_BYTES


class RDevice:
    """Per-device array of rRINGs (Figure 9a) — the rIOMMU's "root table".

    The array is memory-resident: each 16-byte entry holds the flat
    table's physical address and size, written by the OS at ring-setup
    time and read by the hardware walker (through the coherency domain)
    on every table walk.  The context table points here, completing the
    Figure 2 path for the rIOMMU.
    """

    def __init__(self, mem: MemorySystem, coherency: CoherencyDomain, bdf: int) -> None:
        self.mem = mem
        self.coherency = coherency
        self.bdf = bdf
        self.rings: List[RRing] = []
        #: physical address of the memory-resident rRING-descriptor array
        self.table_addr = mem.allocator.alloc_page()
        mem.allocator.pin(self.table_addr)

    @property
    def size(self) -> int:
        """Number of rRINGs."""
        return len(self.rings)

    def add_ring(self, size: int) -> int:
        """Create a flat table of ``size`` entries; returns its ring ID.

        Writes the new rRING's descriptor (table address + size) into
        the rDEVICE array and publishes it to the walker — a rare,
        init-time update, unlike the per-DMA rPTE churn.
        """
        if len(self.rings) >= min(MAX_RID + 1, RDEVICE_CAPACITY):
            raise ValueError("rDEVICE ring array is full")
        ring = RRing(self.mem, self.coherency, size)
        rid = len(self.rings)
        self.rings.append(ring)
        entry_addr = self.table_addr + rid * RRING_ENTRY_BYTES
        self.mem.ram.write_u64(entry_addr, ring.table_addr)
        self.mem.ram.write_u64(entry_addr + 8, ring.size)
        self.coherency.cpu_write(entry_addr, RRING_ENTRY_BYTES)
        self.coherency.sync_mem(entry_addr, RRING_ENTRY_BYTES)
        return rid

    def ring(self, rid: int) -> RRing:
        """The rRING with ID ``rid`` (OS-side object view)."""
        if not 0 <= rid < len(self.rings):
            raise IndexError(f"rid {rid} out of range [0, {len(self.rings)})")
        return self.rings[rid]

    def hardware_ring_descriptor(self, rid: int) -> tuple:
        """Walker read of an rRING descriptor: (table_addr, size).

        Goes through the coherency domain like every hardware access.
        """
        entry_addr = self.table_addr + rid * RRING_ENTRY_BYTES
        self.coherency.hardware_read(entry_addr, RRING_ENTRY_BYTES)
        return (
            self.mem.ram.read_u64(entry_addr),
            self.mem.ram.read_u64(entry_addr + 8),
        )


@dataclass
class RIotlbEntry:
    """One rIOTLB entry (Figure 9e) — at most one per rRING.

    ``rpte`` is a *copy* of the current rPTE; ``next`` optionally holds
    a prefetched copy of the subsequent rPTE.
    """

    bdf: int
    rid: int
    rentry: int
    rpte: RPte
    next: Optional[RPte] = None
    #: False once the OS tore down the backing rPTE while this copy was
    #: cached — a translation served in that state is a stale serve.
    backing_valid: bool = True
