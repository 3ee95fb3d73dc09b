"""DMA primitives shared across layers: direction and the map protocol.

Besides :class:`DmaDirection`, this module defines the one request /
result shape every mapping layer speaks —
:class:`MapRequest`/:class:`MapResult` and
:class:`UnmapRequest`/:class:`UnmapResult` — consumed by
``map_request``/``unmap_request`` on the kernel DMA API
(:mod:`repro.kernel.dma_api`), the baseline IOMMU driver
(:mod:`repro.iommu.driver`) and the rIOMMU driver
(:mod:`repro.core.driver`).  It is the only mapping protocol.
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Optional


class DmaDirection(enum.IntFlag):
    """Direction of a DMA relative to main memory.

    Matches the two-bit ``dir`` field of the paper's rPTE (Figure 9c):
    a DMA can move data *from* memory (device reads it — transmit),
    *to* memory (device writes it — receive), or both.
    """

    #: device reads main memory (transmit path / Tx)
    TO_DEVICE = 1
    #: device writes main memory (receive path / Rx)
    FROM_DEVICE = 2
    #: both directions permitted
    BIDIRECTIONAL = 3

    @property
    def device_reads(self) -> bool:
        """True if the device may read memory under this direction."""
        return bool(self & DmaDirection.TO_DEVICE)

    @property
    def device_writes(self) -> bool:
        """True if the device may write memory under this direction."""
        return bool(self & DmaDirection.FROM_DEVICE)

    def permits(self, access: "DmaDirection") -> bool:
        """True if an access of direction ``access`` is allowed by ``self``."""
        return direction_permits(self, access)


#: The direction rule over raw 2-bit values, tabulated as
#: ``_PERMITS[allowed][access]``: an access must share a bit with the
#: mapping and set no bit the mapping lacks.
_PERMITS = tuple(
    tuple(allowed & access != 0 and access & ~allowed == 0 for access in range(4))
    for allowed in range(4)
)


def direction_permits(allowed: int, access: int) -> bool:
    """True if a mapping of direction ``allowed`` admits an ``access``.

    Both are 2-bit direction values (a :class:`DmaDirection` or its
    int).  This runs on every rIOMMU translation, so it indexes a table
    instead of using ``IntFlag`` ``&``/``~``, which build a new member
    per call.
    """
    return _PERMITS[allowed][access]


class _Record(tuple):
    """Frozen keyword-only record, tuple-backed for cheap construction.

    These records are built once per map/unmap on the simulator's
    hottest path; a frozen ``@dataclass`` pays ~1.4 µs per instance for
    its ``object.__setattr__`` field stores, which is measurable
    against a ~70 ms benchmark cell.  Subclassing ``tuple`` keeps the
    same contract — keyword-only construction (``TypeError`` on
    positional args), immutability (``AttributeError`` on assignment),
    value equality and hashing — at a fraction of the cost.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __getnewargs_ex__(self):
        # The subclasses' __new__ methods are keyword-only, so pickle
        # must rebuild with kwargs (simulation checkpoints serialise
        # any in-flight request/result records).
        return (), dict(zip(self._fields, self))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self)
        )
        return f"{type(self).__name__}({inner})"


class MapRequest(_Record):
    """One buffer to map, in the vocabulary every layer shares.

    ``ring`` is the rIOMMU ring ID the mapping belongs to; layers
    without per-ring tables (identity, baseline IOMMU) ignore it.
    """

    __slots__ = ()
    _fields = ("phys_addr", "size", "direction", "ring")

    def __new__(
        cls,
        *,
        phys_addr: int,
        size: int,
        direction: DmaDirection,
        ring: Optional[int] = None,
    ) -> "MapRequest":
        return tuple.__new__(cls, (phys_addr, size, direction, ring))

    phys_addr: int = property(itemgetter(0))
    size: int = property(itemgetter(1))
    direction: DmaDirection = property(itemgetter(2))
    ring: Optional[int] = property(itemgetter(3))


class MapResult(_Record):
    """The outcome of a map: the device-visible address of the buffer.

    ``device_addr`` is whatever the protection mode makes the device
    use — the physical address (identity), an IOVA (baseline IOMMU),
    or a packed rIOVA (rIOMMU).  ``ring`` echoes the request's ring.
    """

    __slots__ = ()
    _fields = ("device_addr", "ring")

    def __new__(
        cls, *, device_addr: int, ring: Optional[int] = None
    ) -> "MapResult":
        return tuple.__new__(cls, (device_addr, ring))

    device_addr: int = property(itemgetter(0))
    ring: Optional[int] = property(itemgetter(1))


class UnmapRequest(_Record):
    """One device address to unmap.

    ``end_of_burst`` marks the last unmap of a completion burst — the
    only point where the rIOMMU needs an rIOTLB invalidation; other
    backends ignore it.
    """

    __slots__ = ()
    _fields = ("device_addr", "end_of_burst")

    def __new__(
        cls, *, device_addr: int, end_of_burst: bool = False
    ) -> "UnmapRequest":
        return tuple.__new__(cls, (device_addr, end_of_burst))

    device_addr: int = property(itemgetter(0))
    end_of_burst: bool = property(itemgetter(1))


class UnmapResult(_Record):
    """The outcome of an unmap: the buffer's physical address."""

    __slots__ = ()
    _fields = ("phys_addr",)

    def __new__(cls, *, phys_addr: int) -> "UnmapResult":
        return tuple.__new__(cls, (phys_addr,))

    phys_addr: int = property(itemgetter(0))


# -- internal fast-path constructors -----------------------------------
#
# A Python-level keyword-only call costs ~3x the underlying C tuple
# construction — measurable at one request plus one result object per
# map/unmap on the per-packet hot path.  The simulator's own layers
# build records through these positional helpers; external callers use
# the keyword-only classes above (same objects, same immutability).

_tuple_new = tuple.__new__


def _map_request(
    phys_addr: int, size: int, direction: DmaDirection, ring: Optional[int] = None
) -> MapRequest:
    return _tuple_new(MapRequest, (phys_addr, size, direction, ring))


def _map_result(device_addr: int, ring: Optional[int] = None) -> MapResult:
    return _tuple_new(MapResult, (device_addr, ring))


def _unmap_request(device_addr: int, end_of_burst: bool = False) -> UnmapRequest:
    return _tuple_new(UnmapRequest, (device_addr, end_of_burst))


def _unmap_result(phys_addr: int) -> UnmapResult:
    return _tuple_new(UnmapResult, (phys_addr,))
