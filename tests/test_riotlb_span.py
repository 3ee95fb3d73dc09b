"""Differential test of the rIOMMU's folded span translation.

``RIommuHardware.rtranslate_span`` serves two cases in one block — a hit
on the ring's current entry and a ring advance served by the prefetched
``next`` rPTE — and runs the scalar ``rtranslate`` pair for everything
else.  Each test drives two identical machines through the same
operations: one translates through ``rtranslate_span``, the other
through the scalar pair (``rtranslate`` on the first byte, then on the
last).  After every translation both must return the same address or
raise the same fault, and hold the same rIOTLB counters, coherency
counters and rIOTLB entries.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RIommuDriver, RIommuHardware, RPte, pack_iova, unpack_iova
from repro.dma import DmaDirection, MapRequest, UnmapRequest
from repro.faults import BoundsFault, PermissionFault
from repro.memory import CoherencyDomain, MemorySystem, StaleReadError
from repro.modes import Mode
from repro.obs.tracer import TRACE

BDF = 0x0300
TX = DmaDirection.TO_DEVICE
RX = DmaDirection.FROM_DEVICE
BIDI = DmaDirection.BIDIRECTIONAL


class Rig:
    """Memory, rIOMMU hardware and one device's driver.

    The context tables share the driver's coherency domain, as in
    :class:`~repro.kernel.machine.Machine`; with ``split_domains`` they
    get a non-coherent domain of their own, so each domain's counters
    and dirty lines are checked separately.  ``standalone`` hardware has no
    context tables at all.
    """

    def __init__(
        self, mode: Mode, prefetch: bool, standalone: bool, split_domains: bool
    ) -> None:
        self.mem = MemorySystem(size_bytes=1 << 24)
        self.coherency = CoherencyDomain(coherent=mode.coherent_walk)
        self.context_coherency = (
            CoherencyDomain(coherent=False) if split_domains else self.coherency
        )
        if standalone:
            self.hw = RIommuHardware(prefetch_enabled=prefetch)
        else:
            self.hw = RIommuHardware(
                self.mem, self.context_coherency, prefetch_enabled=prefetch
            )
        self.driver = RIommuDriver(
            self.mem, self.hw, BDF, mode, coherency=self.coherency
        )
        self.buffer = self.mem.alloc_dma_buffer(1 << 16)

    def state(self) -> dict:
        """Everything a translation may change."""
        return {
            "riotlb": dict(vars(self.hw.riotlb.stats)),
            "sync": dict(vars(self.coherency.stats)),
            "context_sync": dict(vars(self.context_coherency.stats)),
            "entries": {
                key: (entry.rentry, entry.rpte, entry.next, entry.backing_valid)
                for key, entry in self.hw.riotlb._entries.items()
            },
        }


def outcome(call):
    """The call's return value, or its exception's type and message."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raised", type(exc), str(exc))


class Pair:
    """Two identical rigs: ``span`` translates folded, ``scalar`` per byte."""

    def __init__(
        self,
        mode: Mode = Mode.RIOMMU,
        prefetch: bool = True,
        standalone: bool = False,
        split_domains: bool = False,
        rings=(8,),
    ) -> None:
        self.span = Rig(mode, prefetch, standalone, split_domains)
        self.scalar = Rig(mode, prefetch, standalone, split_domains)
        for size in rings:
            assert self.span.driver.create_ring(size) == self.scalar.driver.create_ring(size)
        # Count the translations rtranslate_span hands to the scalar pair.
        self.fallbacks = 0
        scalar_translate = self.span.hw.rtranslate

        def counted(*args):
            self.fallbacks += 1
            return scalar_translate(*args)

        self.span.hw.rtranslate = counted

    def both(self, op):
        """Run ``op(rig)`` on both rigs; they must agree."""
        got = outcome(lambda: op(self.span))
        assert outcome(lambda: op(self.scalar)) == got
        return got

    def map(self, rid: int, size: int, direction=TX, index: int = 0) -> int:
        got = self.both(
            lambda rig: rig.driver.map_request(
                MapRequest(
                    phys_addr=rig.buffer + 512 * index,
                    size=size,
                    direction=direction,
                    ring=rid,
                )
            ).device_addr
        )
        assert got[0] == "ok", got
        return got[1]

    def unmap(self, packed: int, end_of_burst: bool = False) -> None:
        got = self.both(
            lambda rig: rig.driver.unmap_request(
                UnmapRequest(device_addr=packed, end_of_burst=end_of_burst)
            ).phys_addr
        )
        assert got[0] == "ok", got

    def translate(self, packed: int, size: int, direction=TX):
        """Translate on both rigs; returns (outcome, served without fallback)."""
        before = self.fallbacks
        mark = len(TRACE.events)
        span = outcome(lambda: self.span.hw.rtranslate_span(BDF, packed, size, direction))
        span_events = TRACE.events[mark:]
        fast = self.fallbacks == before

        def scalar_pair():
            hw = self.scalar.hw
            iova = unpack_iova(packed)
            phys = hw.rtranslate(BDF, iova, direction)
            if size > 1:
                hw.rtranslate(BDF, iova.with_offset(iova.offset + size - 1), direction)
            return phys

        mark = len(TRACE.events)
        scalar = outcome(scalar_pair)
        assert [e[1:] for e in TRACE.events[mark:]] == [e[1:] for e in span_events]
        assert span == scalar
        assert self.span.state() == self.scalar.state()
        return span, fast

    def entry(self, rid: int = 0):
        return self.span.hw.riotlb.find(BDF, rid)


def addr(rentry: int, offset: int = 0, rid: int = 0) -> int:
    return pack_iova(offset, rentry, rid)


@pytest.fixture(autouse=True)
def _tracer_off():
    TRACE.reset()
    yield
    TRACE.reset()


def test_same_entry_hit_is_folded():
    pair = Pair()
    a = pair.map(0, 1500)
    assert pair.translate(a, 1500) == (("ok", pair.span.buffer), False)  # cold
    result, fast = pair.translate(addr(0, 100), 64)
    assert result == ("ok", pair.span.buffer + 100) and fast


def test_sequential_advance_is_folded():
    pair = Pair()
    addrs = [pair.map(0, 1500, index=i) for i in range(4)]
    _, fast = pair.translate(addrs[0], 1500)
    assert not fast  # cold miss walks the table
    for i, a in enumerate(addrs[1:], start=1):
        result, fast = pair.translate(a, 1500)
        assert result == ("ok", pair.span.buffer + 512 * i) and fast
    stats = pair.span.hw.riotlb.stats
    assert (stats.prefetch_hits, stats.sync_walks, stats.misses) == (3, 0, 1)
    assert pair.entry().next is None  # entry 4 was never mapped


def test_one_byte_advance_counts_one_translation():
    pair = Pair()
    addrs = [pair.map(0, 10, index=i) for i in range(2)]
    pair.translate(addrs[0], 1)
    _, fast = pair.translate(addrs[1], 1)
    assert fast
    assert pair.span.hw.riotlb.stats.translations == 2


def test_wraparound_from_last_entry_to_zero():
    pair = Pair(rings=(4,))
    addrs = [pair.map(0, 100, index=i) for i in range(4)]
    for a in addrs:
        pair.translate(a, 100)
    assert pair.entry().rentry == 3 and pair.entry().next is not None
    result, fast = pair.translate(addrs[0], 100)
    assert result == ("ok", pair.span.buffer) and fast
    assert pair.entry().rentry == 0


def test_skip_ahead_runs_the_sync_walk():
    pair = Pair()
    addrs = [pair.map(0, 100, index=i) for i in range(4)]
    pair.translate(addrs[0], 100)
    _, fast = pair.translate(addrs[2], 100)
    assert not fast
    assert pair.span.hw.riotlb.stats.sync_walks == 1


def test_sync_walk_prefetches_twice():
    """Pin the sync walk's double prefetch.

    ``riotlb_entry_sync``'s walk branch calls ``rtable_walk``, which
    already prefetches the following rPTE, and then prefetches again
    itself.  The second rRING-descriptor and rPTE reads are redundant,
    but the Figure-12 goldens encode the hardware-read count they
    produce, so they are kept.  This test fails if either copy goes.
    """
    pair = Pair()
    addrs = [pair.map(0, 100, index=i) for i in range(4)]
    pair.translate(addrs[0], 1)
    hw = pair.scalar.hw
    prefetches = []
    real_prefetch = hw.rprefetch
    hw.rprefetch = lambda device, entry: (prefetches.append(entry.rentry), real_prefetch(device, entry))
    reads = pair.scalar.coherency.stats.hardware_reads
    pair.translate(addrs[2], 1)
    assert prefetches == [2, 2]
    # sync: context lookup 2 + descriptor 1; walk: context 2 + descriptor 1
    # + rPTE 1; two prefetches: (descriptor 1 + rPTE 1) x 2
    assert pair.scalar.coherency.stats.hardware_reads - reads == 11


def test_cold_entry_after_end_of_burst_invalidation():
    pair = Pair()
    addrs = [pair.map(0, 100, index=i) for i in range(3)]
    pair.translate(addrs[0], 100)
    pair.unmap(addrs[0], end_of_burst=True)
    assert pair.entry() is None
    _, fast = pair.translate(addrs[1], 100)
    assert not fast
    assert pair.span.hw.riotlb.stats.misses == 2


def test_next_invalid_at_prefetch_time_falls_back():
    pair = Pair()
    first = pair.map(0, 100)
    pair.translate(first, 100)
    assert pair.entry().next is None  # entry 1 was not mapped yet
    second = pair.map(0, 100, index=1)
    result, fast = pair.translate(second, 100)
    assert result == ("ok", pair.span.buffer + 512) and not fast
    assert pair.span.hw.riotlb.stats.sync_walks == 1


def test_next_torn_down_after_prefetch_is_served_from_the_copy():
    """The rIOTLB keeps its prefetched copy until the burst's invalidation;
    both paths serve it identically."""
    pair = Pair()
    addrs = [pair.map(0, 100, index=i) for i in range(3)]
    pair.translate(addrs[0], 100)
    pair.unmap(addrs[1])
    result, fast = pair.translate(addrs[1], 100)
    assert result == ("ok", pair.span.buffer + 512) and fast


def test_advance_past_a_torn_down_entry_is_folded():
    """Leaving a stale entry for the next one makes the entry current again."""
    pair = Pair()
    addrs = [pair.map(0, 100, index=i) for i in range(3)]
    pair.translate(addrs[0], 100)
    pair.unmap(addrs[0])
    assert not pair.entry().backing_valid
    _, fast = pair.translate(addrs[1], 100)
    assert fast and pair.entry().backing_valid


def test_stale_serve_is_folded():
    pair = Pair()
    a = pair.map(0, 100)
    pair.translate(a, 100)
    pair.unmap(a)  # rPTE torn down, no invalidation: the entry is stale
    result, fast = pair.translate(a, 100)
    assert result == ("ok", pair.span.buffer) and fast
    assert pair.span.hw.riotlb.stats.stale_hits == 2


@pytest.mark.parametrize(
    "offset, size, direction, fault",
    [(50, 100, TX, BoundsFault), (100, 1, TX, BoundsFault), (0, 10, RX, PermissionFault)],
)
def test_fault_on_advance(offset, size, direction, fault):
    pair = Pair()
    addrs = [pair.map(0, 100, TX, index=i) for i in range(3)]
    pair.translate(addrs[0], 100)
    result, fast = pair.translate(addrs[1] + offset, size, direction)
    assert result[:2] == ("raised", fault) and not fast
    # The scalar pair advances the entry before it checks the access.
    assert pair.entry().rentry == 1


def test_prefetch_disabled_falls_back():
    pair = Pair(prefetch=False)
    addrs = [pair.map(0, 100, index=i) for i in range(3)]
    for a in addrs:
        _, fast = pair.translate(a, 100)
        assert not fast
    stats = pair.span.hw.riotlb.stats
    assert (stats.prefetch_hits, stats.sync_walks) == (0, 2)


def test_prefetch_switched_off_after_a_prefetch_falls_back():
    """The cached ``next`` still serves the advance, but no new rPTE is
    prefetched: the scalar chain reads less than the folded block replays."""
    pair = Pair()
    addrs = [pair.map(0, 100, index=i) for i in range(3)]
    pair.translate(addrs[0], 100)
    pair.span.hw.prefetch_enabled = pair.scalar.hw.prefetch_enabled = False
    _, fast = pair.translate(addrs[1], 100)
    assert not fast
    assert pair.span.hw.riotlb.stats.prefetch_hits == 1
    assert pair.entry().next is None


def test_ring_of_one_entry():
    pair = Pair(rings=(1,))
    a = pair.map(0, 100)
    pair.translate(a, 100)
    _, fast = pair.translate(a, 100)
    assert fast  # a hit on the only entry
    pair.unmap(a)
    again = pair.map(0, 50, index=1)
    assert again == a  # the tail wrapped onto the same entry
    # The entry still caches the old rPTE: a stale hit, not an advance.
    result, fast = pair.translate(again, 100)
    assert result == ("ok", pair.span.buffer) and fast


@pytest.mark.parametrize("split_domains", [False, True])
def test_unflushed_rpte_write_still_raises_stale_read(split_domains):
    """riommu-: a dirty walker line sends the advance down the scalar
    path, whose prefetch of the next rPTE detects the missing flush."""
    pair = Pair(mode=Mode.RIOMMU_NC, split_domains=split_domains)
    addrs = [pair.map(0, 100, index=i) for i in range(2)]
    pair.translate(addrs[0], 100)
    # A CPU store to rPTE 2 with no sync_mem leaves its line dirty.
    pair.both(
        lambda rig: rig.driver.device.ring(0).write_pte(
            2, RPte(phys_addr=rig.buffer, size=10, direction=TX, valid=True)
        )
    )
    result, fast = pair.translate(addrs[1], 100)
    assert result[:2] == ("raised", StaleReadError) and not fast
    assert pair.span.coherency.stats.stale_reads == 1


def test_unflushed_context_entry_still_raises_stale_read():
    """A dirty context-table line fails the scalar requester-ID lookup."""
    pair = Pair(split_domains=True)
    addrs = [pair.map(0, 100, index=i) for i in range(2)]
    pair.translate(addrs[0], 100)
    pair.both(
        lambda rig: rig.context_coherency.cpu_write(
            rig.hw.contexts._lookup_cache[BDF][1], 8
        )
    )
    result, fast = pair.translate(addrs[1], 100)
    assert result[:2] == ("raised", StaleReadError) and not fast


@pytest.mark.parametrize("split_domains", [False, True])
def test_clean_riommu_nc_advance_is_folded(split_domains):
    pair = Pair(mode=Mode.RIOMMU_NC, split_domains=split_domains)
    addrs = [pair.map(0, 100, index=i) for i in range(3)]
    pair.translate(addrs[0], 100)
    _, fast = pair.translate(addrs[1], 100)
    assert fast


def test_tracer_on_runs_the_scalar_pair():
    pair = Pair()
    addrs = [pair.map(0, 100, index=i) for i in range(3)]
    TRACE.enable()
    for a in addrs:
        _, fast = pair.translate(a, 100)
        assert not fast
    assert TRACE.event_counts()["translate"] == 2 * 2 * len(addrs)


def test_standalone_hardware_runs_the_scalar_pair():
    pair = Pair(standalone=True)
    addrs = [pair.map(0, 100, index=i) for i in range(3)]
    pair.translate(addrs[0], 100)
    _, fast = pair.translate(addrs[1], 100)
    assert not fast  # no context tables to replay
    _, fast = pair.translate(addrs[1], 100)
    assert fast  # the hit needs no context lookup


# -- random sequences --------------------------------------------------------

_ops = st.one_of(
    st.tuples(
        st.just("map"),
        st.integers(0, 1),
        st.integers(1, 300),
        st.sampled_from([TX, RX, BIDI]),
    ),
    st.tuples(
        st.just("span"),
        st.integers(0, 1),
        st.integers(0, 5),
        st.integers(0, 320),
        st.integers(1, 320),
        st.sampled_from([TX, RX]),
    ),
    # The entry after the ring's current one — the advance — accessed in
    # its mapping's direction unless ``flip``.
    st.tuples(st.just("next"), st.integers(0, 1), st.integers(1, 128), st.booleans()),
    st.tuples(st.just("unmap"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("store"), st.integers(0, 1), st.integers(0, 5), st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from([Mode.RIOMMU, Mode.RIOMMU_NC]),
    ring_sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    prefetch=st.booleans(),
    split_domains=st.booleans(),
    ops=st.lists(_ops, min_size=5, max_size=60),
)
def test_random_rx_tx_spans_agree(mode, ring_sizes, prefetch, split_domains, ops):
    """Random maps, Rx/Tx spans, unmaps and raw rPTE stores (flushed or
    not) over both paths."""
    pair = Pair(
        mode=mode, prefetch=prefetch, split_domains=split_domains, rings=ring_sizes
    )
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "map":
            _, rid, size, direction = op
            pair.both(
                lambda rig: rig.driver.map_request(
                    MapRequest(
                        phys_addr=rig.buffer + 512 * (step % 64),
                        size=size,
                        direction=direction,
                        ring=rid,
                    )
                ).device_addr
            )
        elif kind == "span":
            _, rid, rentry, offset, size, direction = op
            pair.translate(addr(rentry % ring_sizes[rid], offset, rid), size, direction)
        elif kind == "next":
            _, rid, size, flip = op
            entry = pair.entry(rid)
            rentry = 0 if entry is None else (entry.rentry + 1) % ring_sizes[rid]
            mapping = pair.span.driver._live.get((rid, rentry))
            direction = TX if mapping is None else mapping.direction
            if direction is BIDI:
                direction = RX if flip else TX
            elif flip:
                direction = RX if direction is TX else TX
            pair.translate(addr(rentry, 0, rid), size, direction)
        elif kind == "unmap":
            _, pick, end_of_burst = op
            live = sorted(pair.span.driver._live)
            assert live == sorted(pair.scalar.driver._live)
            if live:
                rid, rentry = live[pick % len(live)]
                pair.unmap(addr(rentry, 0, rid), end_of_burst)
        else:
            _, rid, rentry, flush = op
            rentry %= ring_sizes[rid]

            def store(rig):
                ring = rig.driver.device.ring(rid)
                entry_addr = ring.write_pte(
                    rentry, RPte(phys_addr=rig.buffer, size=64, direction=BIDI, valid=True)
                )
                if flush:
                    rig.coherency.sync_mem(entry_addr, 16)

            pair.both(store)
