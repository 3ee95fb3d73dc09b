"""Simulated ring-based NICs, modelled on the paper's two testbeds.

The Mellanox ConnectX3 profile (``mlx``) is a 40 Gbps NIC whose driver
posts *two* target buffers per packet — a small header buffer and a data
buffer — so every packet costs two map and two unmap calls.  The
Broadcom BCM57810 profile (``brcm``) is a 10 Gbps NIC with one buffer
per packet.  These two differences (line rate and buffers-per-packet)
drive all the qualitative differences between the top and bottom halves
of the paper's Figure 12.

The device only ever touches memory through its :class:`~repro.devices.dma.DmaBus`,
so every descriptor fetch, packet write and completion write-back is a
translated DMA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.devices.descriptor import _CODEC, DESCRIPTOR_BYTES, FLAG_DONE, FLAG_VALID
from repro.devices.dma import DmaBus, DmaEngine
from repro.devices.ring import Ring
from repro.faults import IoPageFault


@dataclass(frozen=True)
class NicProfile:
    """Static characteristics of a NIC model."""

    name: str
    line_rate_gbps: float
    #: target buffers (and thus IOVAs) the driver posts per packet
    buffers_per_packet: int
    #: bytes of each packet that land in the header buffer (0 = no split)
    header_split_bytes: int
    rx_entries: int
    tx_entries: int

    def __post_init__(self) -> None:
        if self.buffers_per_packet not in (1, 2):
            raise ValueError("buffers_per_packet must be 1 or 2")
        if self.buffers_per_packet == 2 and self.header_split_bytes <= 0:
            raise ValueError("two-buffer NICs need a positive header split")


#: Mellanox ConnectX3 40 Gbps — two buffers (header + data) per packet.
MLX_PROFILE = NicProfile(
    name="mlx",
    line_rate_gbps=40.0,
    buffers_per_packet=2,
    header_split_bytes=128,
    rx_entries=512,
    tx_entries=512,
)

#: Broadcom BCM57810 10 Gbps — one buffer per packet.
BRCM_PROFILE = NicProfile(
    name="brcm",
    line_rate_gbps=10.0,
    buffers_per_packet=1,
    header_split_bytes=0,
    rx_entries=512,
    tx_entries=512,
)


@dataclass
class NicStats:
    """Device-side counters."""

    frames_received: int = 0
    frames_transmitted: int = 0
    rx_drops: int = 0
    bytes_received: int = 0
    bytes_transmitted: int = 0
    #: DMAs aborted by the (r)IOMMU — a faulting device normally gets
    #: reinitialised by the OS (paper §4)
    io_page_faults: int = 0


CompletionCallback = Callable[[int, int], None]  # (descriptor index, byte count)


class SimulatedNic:
    """Device-side NIC logic: consumes rings, moves bytes, reports completions.

    The NIC runs the datapath build of its ``bus``.
    """

    def __init__(self, bus: DmaBus, bdf: int, profile: NicProfile) -> None:
        self.bus = bus
        self.columnar = bus.columnar
        self.bdf = bdf
        self.engine = DmaEngine(bus, bdf)
        self.profile = profile
        self.stats = NicStats()
        self.rx_ring: Optional[Ring] = None
        self.tx_ring: Optional[Ring] = None
        self.on_rx_complete: Optional[CompletionCallback] = None
        self.on_tx_complete: Optional[CompletionCallback] = None
        #: if set, I/O page faults during DMAs are counted and reported
        #: here instead of propagating — the hook where the OS would
        #: reinitialise the device (paper §4: IOPFs are fatal to the
        #: transaction, and "OSes typically reinitialize the I/O device")
        self.on_io_page_fault: Optional[Callable[[IoPageFault], None]] = None
        #: frames the device "put on the wire"
        self.wire: List[bytes] = []

    # -- driver-facing configuration (MMIO register writes on real HW) -----

    def attach_rings(self, rx_ring: Ring, tx_ring: Ring) -> None:
        """Program the device with its Rx/Tx rings (bases already mapped)."""
        if rx_ring.device_base is None or tx_ring.device_base is None:
            raise ValueError("rings must have device-visible base addresses")
        self.rx_ring = rx_ring
        self.tx_ring = tx_ring

    # -- receive path ---------------------------------------------------------

    def deliver_frame(self, payload: bytes) -> bool:
        """A frame arrives from the wire; DMA it into the next Rx buffer.

        Returns False (and counts a drop) when no Rx descriptor is
        posted.  Exercises the full Figure 5 path: descriptor fetch
        through the IOMMU, then the data write through the IOMMU.
        """
        if not payload:
            raise ValueError("payload must be non-empty")
        ring = self._require(self.rx_ring, "rx")
        if ring.pending == 0:
            self.stats.rx_drops += 1
            return False
        if self.columnar:
            return self._deliver_frame_columnar(ring, payload)
        index = ring.head
        try:
            descriptor = ring.device_fetch(self.bus, self.bdf, index)
        except IoPageFault as fault:
            self._fault(fault)
            return False
        if not descriptor.valid or not descriptor.segments:
            self.stats.rx_drops += 1
            return False
        if len(payload) > descriptor.total_length:
            self.stats.rx_drops += 1
            return False

        # One scatter call for the whole descriptor: each (addr, chunk)
        # pair is exactly what the per-segment dma_write loop would send.
        parts = []
        pos = 0
        for seg_addr, seg_len in descriptor.segments:
            if pos >= len(payload):
                break
            chunk = payload[pos : pos + seg_len]
            parts.append((seg_addr, chunk))
            pos += len(chunk)
        try:
            self.engine.write_scatter(parts)
        except IoPageFault as fault:
            self._fault(fault)
            return False

        descriptor.flags |= FLAG_DONE
        ring.device_writeback(self.bus, self.bdf, index, descriptor)
        ring.device_advance_head()
        self.stats.frames_received += 1
        self.stats.bytes_received += len(payload)
        if self.on_rx_complete is not None:
            self.on_rx_complete(index, len(payload))
        return True

    def _deliver_frame_columnar(self, ring: Ring, payload: bytes) -> bool:
        """:meth:`deliver_frame` without the ``Descriptor`` round-trip.

        The descriptor words are unpacked and re-packed with the same
        codec ``Descriptor.decode``/``encode`` use — including dropping
        zero-length segments on decode — so every DMA the bus sees is
        byte-identical to the scalar path's.
        """
        index = ring.head
        bus = self.bus
        bdf = self.bdf
        slot_addr = ring.slot_device_addr(index)
        try:
            raw = bus.dma_read(bdf, slot_addr, DESCRIPTOR_BYTES)
        except IoPageFault as fault:
            self._fault(fault)
            return False
        addr0, len0, flags, addr1, len1 = _CODEC.unpack(raw)
        if not flags & FLAG_VALID or not (len0 or len1):
            self.stats.rx_drops += 1
            return False
        nbytes = len(payload)
        if nbytes > len0 + len1:
            self.stats.rx_drops += 1
            return False

        parts = []
        pos = 0
        if len0:
            chunk = payload[:len0]
            parts.append((addr0, chunk))
            pos = len(chunk)
        if len1 and pos < nbytes:
            parts.append((addr1, payload[pos : pos + len1]))
        try:
            self.engine.write_scatter(parts)
        except IoPageFault as fault:
            self._fault(fault)
            return False

        # Write back from the *decoded* segment list, like the scalar
        # decode -> flags |= DONE -> encode round-trip does.
        done = flags | FLAG_DONE
        if len0:
            out = _CODEC.pack(addr0, len0, done, addr1 if len1 else 0, len1)
        else:
            out = _CODEC.pack(addr1, len1, done, 0, 0)
        bus.dma_write(bdf, slot_addr, out)
        ring.device_advance_head()
        stats = self.stats
        stats.frames_received += 1
        stats.bytes_received += nbytes
        if self.on_rx_complete is not None:
            self.on_rx_complete(index, nbytes)
        return True

    # -- transmit path ------------------------------------------------------------

    def process_tx(self, max_frames: Optional[int] = None) -> int:
        """Consume posted Tx descriptors: DMA-read the buffers and "send".

        Returns the number of frames transmitted this call.
        """
        ring = self._require(self.tx_ring, "tx")
        if self.columnar:
            return self._process_tx_columnar(ring, max_frames)
        sent = 0
        while ring.pending > 0 and (max_frames is None or sent < max_frames):
            index = ring.head
            descriptor = ring.device_fetch(self.bus, self.bdf, index)
            if not descriptor.valid:
                break
            try:
                # One gather call covering the whole descriptor.
                frame = self.engine.read_gather(descriptor.segments)
            except IoPageFault as fault:
                self._fault(fault)
                break
            self.wire.append(frame)
            descriptor.flags |= FLAG_DONE
            ring.device_writeback(self.bus, self.bdf, index, descriptor)
            ring.device_advance_head()
            self.stats.frames_transmitted += 1
            self.stats.bytes_transmitted += len(frame)
            if self.on_tx_complete is not None:
                self.on_tx_complete(index, len(frame))
            sent += 1
        return sent

    def _process_tx_columnar(self, ring: Ring, max_frames: Optional[int]) -> int:
        """:meth:`process_tx` with raw descriptor codecs (see
        :meth:`_deliver_frame_columnar` for the equivalence argument)."""
        sent = 0
        bus = self.bus
        bdf = self.bdf
        engine = self.engine
        stats = self.stats
        wire = self.wire
        while ring.pending > 0 and (max_frames is None or sent < max_frames):
            index = ring.head
            slot_addr = ring.slot_device_addr(index)
            addr0, len0, flags, addr1, len1 = _CODEC.unpack(
                bus.dma_read(bdf, slot_addr, DESCRIPTOR_BYTES)
            )
            if not flags & FLAG_VALID:
                break
            segments = []
            if len0:
                segments.append((addr0, len0))
            if len1:
                segments.append((addr1, len1))
            try:
                frame = engine.read_gather(segments)
            except IoPageFault as fault:
                self._fault(fault)
                break
            wire.append(frame)
            done = flags | FLAG_DONE
            if len0:
                out = _CODEC.pack(addr0, len0, done, addr1 if len1 else 0, len1)
            else:
                out = _CODEC.pack(addr1 if len1 else 0, len1, done, 0, 0)
            bus.dma_write(bdf, slot_addr, out)
            ring.device_advance_head()
            stats.frames_transmitted += 1
            stats.bytes_transmitted += len(frame)
            if self.on_tx_complete is not None:
                self.on_tx_complete(index, len(frame))
            sent += 1
        return sent

    def fault_count(self) -> int:
        """IOPFs observed so far."""
        return self.stats.io_page_faults

    def _fault(self, fault: IoPageFault) -> None:
        """Count the IOPF; report it if a handler is set, else propagate."""
        self.stats.io_page_faults += 1
        if self.on_io_page_fault is None:
            raise fault
        self.on_io_page_fault(fault)

    @staticmethod
    def _require(ring: Optional[Ring], which: str) -> Ring:
        if ring is None:
            raise RuntimeError(f"NIC has no {which} ring attached")
        return ring


class MultiQueueNic:
    """A NIC with multiple Rx/Tx ring pairs (paper §2.3).

    Real NICs scale by letting different cores service different ring
    pairs; RSS hashes each flow to a queue.  Each queue is a full
    :class:`SimulatedNic` engine sharing the device's bus and requester
    ID, so under the rIOMMU every queue gets its own pair of rRINGs and
    its own single rIOTLB entry.
    """

    def __init__(
        self, bus: DmaBus, bdf: int, profile: NicProfile, num_queues: int
    ) -> None:
        if num_queues <= 0:
            raise ValueError("need at least one queue")
        self.bus = bus
        self.bdf = bdf
        self.profile = profile
        self.queues: List[SimulatedNic] = [
            SimulatedNic(bus, bdf, profile) for _ in range(num_queues)
        ]

    @property
    def num_queues(self) -> int:
        """Number of Rx/Tx ring pairs."""
        return len(self.queues)

    def queue(self, index: int) -> SimulatedNic:
        """One queue's engine."""
        return self.queues[index]

    def rss_queue(self, flow_id: int) -> int:
        """Receive-side-scaling hash: flow -> queue index."""
        return (flow_id * 0x9E3779B1 & 0xFFFFFFFF) % len(self.queues)

    # -- aggregates -------------------------------------------------------

    @property
    def frames_received(self) -> int:
        """Frames received across all queues."""
        return sum(q.stats.frames_received for q in self.queues)

    @property
    def frames_transmitted(self) -> int:
        """Frames transmitted across all queues."""
        return sum(q.stats.frames_transmitted for q in self.queues)

    @property
    def wire(self) -> List[bytes]:
        """Everything put on the wire, in per-queue order."""
        out: List[bytes] = []
        for q in self.queues:
            out.extend(q.wire)
        return out
