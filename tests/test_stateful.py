"""Hypothesis stateful tests: long random operation sequences.

These drive the rIOMMU driver+hardware and the baseline driver+IOMMU
with arbitrary interleavings of map / DMA / unmap / invalidate,
checking the safety invariants after every step against a simple
Python model.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import pytest

from repro.core import RIommuDriver, RIommuHardware, RingOverflowError
from repro.dma import DmaDirection
from repro.faults import IoPageFault
from repro.iommu import BaselineIommuDriver, Iommu
from repro.memory import MemorySystem
from repro.modes import Mode
from tests.dma_helpers import dma_map, dma_unmap, riommu_map, riommu_unmap

BDF = 0x0300
RING_SIZE = 16


class RIommuMachine(RuleBasedStateMachine):
    """Random map/DMA/unmap sequences against the rIOMMU."""

    @initialize()
    def setup(self):
        self.mem = MemorySystem(size_bytes=1 << 24)
        self.hw = RIommuHardware()
        self.driver = RIommuDriver(self.mem, self.hw, BDF, Mode.RIOMMU)
        self.rid = self.driver.create_ring(RING_SIZE)
        self.phys = self.mem.alloc_dma_buffer(4096)
        #: model: rentry -> (size, direction) for live mappings
        self.live = {}

    @rule(
        size=st.integers(min_value=1, max_value=4096),
        direction=st.sampled_from(
            [DmaDirection.TO_DEVICE, DmaDirection.FROM_DEVICE, DmaDirection.BIDIRECTIONAL]
        ),
    )
    def map_buffer(self, size, direction):
        tail = self.driver.device.ring(self.rid).tail
        if len(self.live) == RING_SIZE or tail in self.live:
            # Full ring — or a live tail entry left by out-of-order
            # unmaps — must push back rather than overwrite.
            with pytest.raises(RingOverflowError):
                riommu_map(self.driver, self.rid, self.phys, size, direction)
            return
        iova = riommu_map(self.driver, self.rid, self.phys, size, direction)
        assert iova.rentry not in self.live
        self.live[iova.rentry] = (iova, size, direction)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), end_of_burst=st.booleans())
    def unmap_buffer(self, data, end_of_burst):
        rentry = data.draw(st.sampled_from(sorted(self.live)))
        iova, _size, _direction = self.live.pop(rentry)
        assert riommu_unmap(self.driver, iova, end_of_burst=end_of_burst) == self.phys

    @precondition(lambda self: self.live)
    @rule(data=st.data(), offset_frac=st.floats(min_value=0, max_value=0.999))
    def translate_live(self, data, offset_frac):
        rentry = data.draw(st.sampled_from(sorted(self.live)))
        iova, size, direction = self.live[rentry]
        offset = int(offset_frac * size)
        access = (
            DmaDirection.TO_DEVICE if direction.device_reads else DmaDirection.FROM_DEVICE
        )
        pa = self.hw.rtranslate(BDF, iova.with_offset(offset), access)
        assert pa == self.phys + offset

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def translate_out_of_bounds_faults(self, data):
        rentry = data.draw(st.sampled_from(sorted(self.live)))
        iova, size, direction = self.live[rentry]
        access = (
            DmaDirection.TO_DEVICE if direction.device_reads else DmaDirection.FROM_DEVICE
        )
        with pytest.raises(IoPageFault):
            self.hw.rtranslate(BDF, iova.with_offset(size), access)

    @rule()
    def invalidate_ring(self):
        self.hw.riotlb.invalidate(BDF, self.rid)

    @invariant()
    def nmapped_matches_model(self):
        if not hasattr(self, "driver"):
            return
        assert self.driver.nmapped(self.rid) == len(self.live)

    @invariant()
    def at_most_one_riotlb_entry(self):
        if not hasattr(self, "hw"):
            return
        assert self.hw.riotlb.entries_for_ring(BDF, self.rid) <= 1


class BaselineMachine(RuleBasedStateMachine):
    """Random map/DMA/unmap sequences against the strict baseline."""

    @initialize()
    def setup(self):
        self.mem = MemorySystem(size_bytes=1 << 26)
        self.iommu = Iommu(self.mem)
        self.driver = BaselineIommuDriver(self.mem, self.iommu, BDF, Mode.STRICT)
        #: model: iova -> (phys, size, direction)
        self.live = {}
        self.unmapped = []

    @rule(
        pages=st.integers(min_value=1, max_value=3),
        direction=st.sampled_from(
            [DmaDirection.TO_DEVICE, DmaDirection.FROM_DEVICE, DmaDirection.BIDIRECTIONAL]
        ),
    )
    def map_buffer(self, pages, direction):
        if len(self.live) > 64:
            return
        size = pages * 4096
        phys = self.mem.alloc_dma_buffer(size)
        iova = dma_map(self.driver, phys, size, direction)
        self.live[iova] = (phys, size, direction)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def unmap_buffer(self, data):
        iova = data.draw(st.sampled_from(sorted(self.live)))
        phys, size, _direction = self.live.pop(iova)
        assert dma_unmap(self.driver, iova) == phys
        self.mem.free_dma_buffer(phys, size)
        self.unmapped.append(iova)
        if len(self.unmapped) > 8:
            self.unmapped.pop(0)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def translate_live(self, data):
        iova = data.draw(st.sampled_from(sorted(self.live)))
        phys, size, direction = self.live[iova]
        access = (
            DmaDirection.TO_DEVICE if direction.device_reads else DmaDirection.FROM_DEVICE
        )
        offset = size - 1
        assert self.iommu.translate(BDF, iova + offset, access) == phys + offset

    @precondition(lambda self: self.unmapped)
    @rule(data=st.data())
    def translate_unmapped_faults(self, data):
        iova = data.draw(st.sampled_from(self.unmapped))
        if iova in self.live:  # address was legitimately reused
            return
        if any(
            other <= iova < other + meta[1]
            for other, meta in self.live.items()
        ):
            return
        with pytest.raises(IoPageFault):
            self.iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)

    @invariant()
    def live_count_matches(self):
        if not hasattr(self, "driver"):
            return
        assert self.driver.live_mappings() == len(self.live)


TestRIommuStateful = RIommuMachine.TestCase
TestRIommuStateful.settings = settings(max_examples=25, stateful_step_count=60, deadline=None)

TestBaselineStateful = BaselineMachine.TestCase
TestBaselineStateful.settings = settings(max_examples=20, stateful_step_count=50, deadline=None)


class TrafficMachine(RuleBasedStateMachine):
    """Random rx/tx/pump/flush interleavings through the full NIC stack.

    The model tracks payloads in flight; integrity must hold under any
    interleaving, in a protected mode, with small coalescing bursts.
    """

    @initialize(mode=st.sampled_from([Mode.STRICT, Mode.DEFER, Mode.RIOMMU]))
    def setup(self, mode):
        from repro.devices import MLX_PROFILE, SimulatedNic
        from repro.kernel import Machine, NetDriver

        self.machine = Machine(mode)
        self.nic = SimulatedNic(self.machine.bus, BDF, MLX_PROFILE)
        self.received = []
        self.driver = NetDriver(
            self.machine,
            self.nic,
            coalesce_threshold=3,
            packet_sink=self.received.append,
        )
        self.driver.fill_rx()
        self.sent_rx = []
        self.sent_tx = []
        self.seq = 0

    def _payload(self):
        self.seq += 1
        return bytes([self.seq % 256, (self.seq >> 8) % 256]) * 300

    @rule()
    def deliver(self):
        payload = self._payload()
        if self.nic.deliver_frame(payload):
            self.sent_rx.append(payload)

    @rule()
    def transmit(self):
        payload = self._payload()
        if self.driver.transmit(payload):
            self.sent_tx.append(payload)

    @rule()
    def pump(self):
        self.driver.pump_tx()

    @rule()
    def flush(self):
        self.driver.flush_rx()
        self.driver.flush_tx()

    def teardown(self):
        if not hasattr(self, "driver"):
            return
        self.driver.pump_tx()
        self.driver.flush_rx()
        self.driver.flush_tx()
        # Every delivered frame reached the sink, in order, bit-exact.
        assert self.received == self.sent_rx
        # Every accepted transmit eventually hit the wire, in order.
        assert self.nic.wire == self.sent_tx
        # No DMA ever faulted silently.
        assert self.nic.stats.io_page_faults == 0


TestTrafficStateful = TrafficMachine.TestCase
TestTrafficStateful.settings = settings(
    max_examples=15, stateful_step_count=50, deadline=None
)
