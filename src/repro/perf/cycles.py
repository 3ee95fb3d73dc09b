"""Cycle accounting: who spent how many CPU cycles on what.

The paper's central methodological result (§3.3) is that for ring-based
high-bandwidth devices, performance is *entirely* determined by the
number of CPU cycles the core spends per packet — the IOMMU hardware
datapath runs in parallel and is never the bottleneck.  The authors
therefore evaluate rIOMMU by spending cycles in software.  We mirror
that: every driver operation charges cycles to a :class:`CycleAccount`
under a :class:`Component` label matching the paper's Table 1 taxonomy.

Accounting is event-count-based, not call-count-based: a component's
observable state is (total cycles, event count), so ``k`` identical
charges may be *staged* as a counter and folded in one step — provided
the fold reproduces the exact float sum the charge-by-charge loop would
have produced.  :meth:`CycleAccount.stage` and
:meth:`CycleAccount.charge_many` implement that; the ``scalar`` build
(``REPRO_DATAPATH=scalar``) forces every staged charge through the
scalar path for differential testing.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro import datapath as _datapath
from repro.obs.lite import LITE
from repro.obs.tracer import TRACE

#: Counter-based charge staging (identical model cycles, fewer Python
#: dict operations per burst).  Governed by ``REPRO_DATAPATH`` (see
#: :mod:`repro.datapath`); parity tests also toggle this at runtime.
BATCH_ENABLED = _datapath.BATCH_ENABLED

#: Largest magnitude at which float addition of integers is exact, so a
#: fold ``total += cycles * n`` is bit-identical to ``n`` repeated adds.
_EXACT_LIMIT = float(1 << 53)


def exact_add(total: float, cycles: float, count: int) -> float:
    """``total`` plus ``count`` repeated additions of ``cycles``, bit-exact.

    The shared arithmetic behind :meth:`CycleAccount._fold` and the
    streaming profiler's replay: multiplies only when the running total
    and the per-charge cost are both integral and the result stays
    within the float-exact range (where integer addition commutes with
    multiplication in binary64), and replays the addition loop
    otherwise.  Guarantees any consumer folding the same charge stream
    reproduces the account's float total to the last bit.
    """
    if count == 1:
        return total + cycles
    bulk = cycles * count
    if (
        float(total).is_integer()
        and float(cycles).is_integer()
        and -_EXACT_LIMIT <= total + bulk <= _EXACT_LIMIT
    ):
        return total + bulk
    for _ in range(count):
        total += cycles
    return total


class Component(enum.Enum):
    """Cost components, matching the rows of the paper's Table 1."""

    # Components key every per-charge dict; identity hashing (members
    # are singletons) avoids re-hashing the value string on each charge.
    __hash__ = object.__hash__

    # map() components
    IOVA_ALLOC = "map.iova_alloc"
    MAP_PAGE_TABLE = "map.page_table"
    MAP_OTHER = "map.other"
    # unmap() components
    IOVA_FIND = "unmap.iova_find"
    IOVA_FREE = "unmap.iova_free"
    UNMAP_PAGE_TABLE = "unmap.page_table"
    IOTLB_INV = "unmap.iotlb_inv"
    UNMAP_OTHER = "unmap.other"
    # everything else the core does per packet (TCP/IP, interrupts, ...)
    PROCESSING = "other"

    @property
    def is_map(self) -> bool:
        """True for components of the map() path."""
        return self.value.startswith("map.")

    @property
    def is_unmap(self) -> bool:
        """True for components of the unmap() path."""
        return self.value.startswith("unmap.")


#: Table 1 ordering for presentation.
MAP_COMPONENTS: Tuple[Component, ...] = (
    Component.IOVA_ALLOC,
    Component.MAP_PAGE_TABLE,
    Component.MAP_OTHER,
)
UNMAP_COMPONENTS: Tuple[Component, ...] = (
    Component.IOVA_FIND,
    Component.IOVA_FREE,
    Component.UNMAP_PAGE_TABLE,
    Component.IOTLB_INV,
    Component.UNMAP_OTHER,
)


class CycleAccount:
    """Accumulates cycles per :class:`Component`.

    ``cycles[c]`` is the total cycles charged to component ``c``;
    ``events[c]`` counts individual charges so averages can be reported
    in the same per-invocation units as Table 1.

    Repeated identical charges can be *staged*: :meth:`stage` keeps a
    per-component ``[cycles, events, count]`` counter and folds it into
    the totals only when the component is next read or charged a
    different amount.  The fold is exact — it multiplies only when the
    running total and the per-charge cost are both integral and within
    the float-exact range, and replays the addition loop otherwise — so
    staging can never change an observable number, only wall-clock time.
    """

    __slots__ = ("_cycles", "_events", "_staged", "_tid", "_label")

    #: Process-wide id sequence; gives each account a stable trace track.
    _ids = itertools.count()

    def __init__(
        self,
        cycles: Optional[Dict[Component, float]] = None,
        events: Optional[Dict[Component, int]] = None,
        label: Optional[str] = None,
    ) -> None:
        self._cycles: Dict[Component, float] = dict(cycles) if cycles else {}
        self._events: Dict[Component, int] = dict(events) if events else {}
        #: Component -> [cycles_per_charge, events_per_charge, count]
        self._staged: Dict[Component, List] = {}
        self._tid: int = next(CycleAccount._ids)
        #: layer tag carried on every emitted ``cycle_charge`` event, so
        #: the attribution profiler can break cycles down per layer
        self._label: Optional[str] = label
        if LITE.active:
            LITE.on_account(self)

    @property
    def trace_id(self) -> int:
        """This account's track id in emitted ``cycle_charge`` events."""
        return self._tid

    @property
    def label(self) -> Optional[str]:
        """The layer tag stamped on this account's trace events."""
        return self._label

    # -- staged-fold plumbing -------------------------------------------

    def _fold(self, component: Component, pending: List) -> None:
        """Fold a staged ``[cycles, events, count]`` into the totals.

        Must produce the bit-exact float the scalar loop would: when the
        running total and the per-charge cost are both integral and the
        result stays within 2^53, integer addition commutes with
        multiplication in binary64 and one fused add is exact; otherwise
        replay the per-charge additions.
        """
        cycles, events, count = pending
        cyc = self._cycles
        cyc[component] = exact_add(cyc.get(component, 0.0), cycles, count)
        self._events[component] = self._events.get(component, 0) + events * count

    def _flush(self) -> None:
        """Fold every staged counter into the totals."""
        staged = self._staged
        if not staged:
            return
        for component, pending in staged.items():
            self._fold(component, pending)
        staged.clear()

    # -- dict views (flush-on-read keeps staging invisible) -------------

    @property
    def cycles(self) -> Dict[Component, float]:
        """Total cycles per component (staged charges folded in)."""
        if self._staged:
            self._flush()
        return self._cycles

    @property
    def events(self) -> Dict[Component, int]:
        """Charge counts per component (staged charges folded in)."""
        if self._staged:
            self._flush()
        return self._events

    # -- charging -------------------------------------------------------

    def charge(self, component: Component, cycles: float, events: int = 1) -> None:
        """Charge ``cycles`` to ``component`` (``events`` invocations)."""
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles ({cycles})")
        staged = self._staged
        if staged:
            pending = staged.pop(component, None)
            if pending is not None:
                self._fold(component, pending)
        self._cycles[component] = self._cycles.get(component, 0.0) + cycles
        self._events[component] = self._events.get(component, 0) + events
        if TRACE.active:
            TRACE.emit_charge(self._tid, component.value, cycles, events, 1, self._label)

    def charge_many(self, component: Component, cycles: float, events: int) -> None:
        """Charge ``events`` identical invocations of ``cycles`` each.

        Equivalent to ``events`` calls of ``charge(component, cycles)``,
        bit-for-bit, but folded in one step where float-exact.
        """
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles ({cycles})")
        if events <= 0:
            raise ValueError("events must be positive")
        staged = self._staged
        if staged:
            pending = staged.pop(component, None)
            if pending is not None:
                self._fold(component, pending)
        self._fold(component, [cycles, 1, events])
        if TRACE.active:
            TRACE.emit_charge(self._tid, component.value, cycles, 1, events, self._label)

    def stage(self, component: Component, cycles: float, events: int = 1) -> None:
        """Stage one charge, coalescing repeats into a counter.

        Observably identical to :meth:`charge`; the fold happens at the
        next read (or differing charge) of the component.  With batching
        disabled this *is* :meth:`charge`.
        """
        if not BATCH_ENABLED:
            self.charge(component, cycles, events)
            return
        staged = self._staged
        pending = staged.get(component)
        if pending is not None:
            if pending[0] == cycles and pending[1] == events:
                pending[2] += 1
                if TRACE.active:
                    TRACE.emit_charge(self._tid, component.value, cycles, events, 1, self._label)
                return
            del staged[component]
            self._fold(component, pending)
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles ({cycles})")
        # Pin the component's position in dict insertion order now, so
        # total() sums components in the same order as the scalar path.
        cyc = self._cycles
        if component not in cyc:
            cyc[component] = 0.0
            self._events[component] = 0
        staged[component] = [cycles, events, 1]
        if TRACE.active:
            TRACE.emit_charge(self._tid, component.value, cycles, events, 1, self._label)

    def stage_many(self, component: Component, cycles: float, count: int, events: int = 1) -> None:
        """Stage ``count`` identical charges in one step.

        Bit-for-bit equivalent to ``count`` calls of
        ``stage(component, cycles, events)`` — the columnar burst loops
        use it to charge a whole burst's worth of one component with a
        single dict operation.  Emits one counted ``cycle_charge`` trace
        event, which the streaming profiler folds with the same
        :func:`exact_add` arithmetic the account itself uses.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if not BATCH_ENABLED:
            for _ in range(count):
                self.charge(component, cycles, events)
            return
        staged = self._staged
        pending = staged.get(component)
        if pending is not None:
            if pending[0] == cycles and pending[1] == events:
                pending[2] += count
                if TRACE.active:
                    TRACE.emit_charge(self._tid, component.value, cycles, events, count, self._label)
                return
            del staged[component]
            self._fold(component, pending)
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles ({cycles})")
        # Pin the component's position in dict insertion order now, so
        # total() sums components in the same order as the scalar path.
        cyc = self._cycles
        if component not in cyc:
            cyc[component] = 0.0
            self._events[component] = 0
        staged[component] = [cycles, events, count]
        if TRACE.active:
            TRACE.emit_charge(self._tid, component.value, cycles, events, count, self._label)

    # -- reads ----------------------------------------------------------

    def total(self, components: Optional[Iterable[Component]] = None) -> float:
        """Total cycles, optionally restricted to ``components``."""
        if self._staged:
            self._flush()
        if components is None:
            return sum(self._cycles.values())
        return sum(self._cycles.get(c, 0.0) for c in components)

    def map_total(self) -> float:
        """Total cycles spent in map()."""
        return self.total(MAP_COMPONENTS)

    def unmap_total(self) -> float:
        """Total cycles spent in unmap()."""
        return self.total(UNMAP_COMPONENTS)

    def average(self, component: Component) -> float:
        """Average cycles per invocation of ``component`` (0 if never charged)."""
        if self._staged:
            self._flush()
        n = self._events.get(component, 0)
        if n == 0:
            return 0.0
        return self._cycles.get(component, 0.0) / n

    def merge(self, other: "CycleAccount") -> None:
        """Fold another account into this one."""
        if self._staged:
            self._flush()
        for comp, cyc in other.cycles.items():
            self._cycles[comp] = self._cycles.get(comp, 0.0) + cyc
        for comp, n in other.events.items():
            self._events[comp] = self._events.get(comp, 0) + n

    def reset(self) -> None:
        """Zero the account."""
        if LITE.active:
            # Must run before the clears: the lite fold reads the
            # flushing ``cycles`` property so its warmup totals include
            # staged charges, exactly like the trace-bus profiler's.
            LITE.on_reset(self)
        self._staged.clear()
        self._cycles.clear()
        self._events.clear()
        if TRACE.active:
            TRACE.emit_reset(self._tid)

    def breakdown(self) -> Mapping[str, float]:
        """Totals keyed by the Table 1 component names."""
        if self._staged:
            self._flush()
        return {c.value: self._cycles.get(c, 0.0) for c in Component}

    def per_packet(self, packets: int) -> Dict[Component, float]:
        """Average cycles per packet for each component (Figure 7 units)."""
        if packets <= 0:
            raise ValueError("packets must be positive")
        if self._staged:
            self._flush()
        return {c: self._cycles.get(c, 0.0) / packets for c in Component}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{c.value}={cyc:.0f}"
            for c, cyc in sorted(self.cycles.items(), key=lambda kv: kv[0].value)
        )
        return f"CycleAccount({parts})"


class MonotonicClock:
    """A never-decreasing cycle clock derived from a :class:`CycleAccount`.

    The event scheduler orders actors by modelled time, which it reads
    off each actor's cycle account — but accounts are *resettable* (the
    workloads zero them between warmup and the measured phase), and a
    scheduler keyed on a clock that jumps backwards would dispatch the
    post-reset events before still-queued pre-reset ones.  This wrapper
    detects each reset (the total dropping below its last reading) and
    re-bases, so :meth:`now` is monotonic across any number of resets
    while still advancing by exactly the account's modelled cycles.

    Reads are cheap (one ``total()`` call) and the wrapper is plain
    data, so it pickles with the rest of a simulation checkpoint.
    """

    __slots__ = ("_account", "_base", "_last")

    def __init__(self, account: CycleAccount) -> None:
        self._account = account
        self._base = 0.0
        self._last = 0.0

    def now(self) -> float:
        """Current monotonic reading, in modelled cycles."""
        total = self._account.total()
        if total < self._last:
            # The account was reset since the previous read: fold the
            # pre-reset cycles into the base so time keeps advancing.
            self._base += self._last
        self._last = total
        return self._base + total
