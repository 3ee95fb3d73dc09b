"""Unit tests for the NVMe and AHCI device models."""

import pytest

from repro.core import RIommuDriver, RIommuHardware
from repro.devices import (
    AhciCommand,
    AhciController,
    AhciOp,
    DmaBus,
    IdentityBackend,
    NVME_BLOCK_BYTES,
    NvmeCommand,
    NvmeController,
    NvmeOpcode,
    NvmeStatus,
    RIommuBackend,
)
from repro.devices.ahci import AHCI_COMMAND_SLOTS, SECTOR_BYTES
from repro.dma import DmaDirection
from repro.memory import MemorySystem
from repro.modes import Mode
from tests.dma_helpers import riommu_map, riommu_unmap

BDF = 0x0500


@pytest.fixture
def mem():
    return MemorySystem(size_bytes=1 << 26)


@pytest.fixture
def bus(mem):
    return DmaBus(mem, IdentityBackend())


# -- NVMe -------------------------------------------------------------------


def test_nvme_write_then_read_roundtrip(mem, bus):
    nvme = NvmeController(bus, BDF)
    qid = nvme.create_queue_pair(8)
    src = mem.alloc_dma_buffer(NVME_BLOCK_BYTES)
    mem.ram.write(src, b"persist me" + bytes(NVME_BLOCK_BYTES - 10))
    nvme.submit(qid, NvmeCommand(NvmeOpcode.WRITE, 1, lba=5, blocks=1, data_addr=src))
    assert nvme.ring_doorbell(qid) == 1
    dst = mem.alloc_dma_buffer(NVME_BLOCK_BYTES)
    nvme.submit(qid, NvmeCommand(NvmeOpcode.READ, 2, lba=5, blocks=1, data_addr=dst))
    nvme.ring_doorbell(qid)
    assert mem.ram.read(dst, 10) == b"persist me"


def test_nvme_commands_processed_in_order(mem, bus):
    nvme = NvmeController(bus, BDF)
    qid = nvme.create_queue_pair(8)
    order = []
    nvme.on_completion = lambda q, cqe: order.append(cqe.command_id)
    buf = mem.alloc_dma_buffer(NVME_BLOCK_BYTES)
    for cid in (10, 11, 12):
        nvme.submit(qid, NvmeCommand(NvmeOpcode.WRITE, cid, lba=cid, blocks=1, data_addr=buf))
    nvme.ring_doorbell(qid)
    assert order == [10, 11, 12]  # strict ring order — the rIOMMU-friendly property


def test_nvme_lba_out_of_range(mem, bus):
    nvme = NvmeController(bus, BDF, capacity_blocks=10)
    qid = nvme.create_queue_pair(4)
    buf = mem.alloc_dma_buffer(NVME_BLOCK_BYTES)
    nvme.submit(qid, NvmeCommand(NvmeOpcode.WRITE, 1, lba=10, blocks=1, data_addr=buf))
    nvme.ring_doorbell(qid)
    assert nvme.queue(qid).completions[-1].status is NvmeStatus.LBA_OUT_OF_RANGE


def test_nvme_invalid_blocks(mem, bus):
    nvme = NvmeController(bus, BDF)
    qid = nvme.create_queue_pair(4)
    nvme.submit(qid, NvmeCommand(NvmeOpcode.READ, 1, lba=0, blocks=0, data_addr=0x1000))
    nvme.ring_doorbell(qid)
    assert nvme.queue(qid).completions[-1].status is NvmeStatus.INVALID_FIELD


def test_nvme_queue_full(mem, bus):
    nvme = NvmeController(bus, BDF)
    qid = nvme.create_queue_pair(2)
    buf = mem.alloc_dma_buffer(NVME_BLOCK_BYTES)
    nvme.submit(qid, NvmeCommand(NvmeOpcode.WRITE, 1, lba=0, blocks=1, data_addr=buf))
    with pytest.raises(RuntimeError):
        nvme.submit(qid, NvmeCommand(NvmeOpcode.WRITE, 2, lba=1, blocks=1, data_addr=buf))


def test_nvme_unknown_queue(mem, bus):
    nvme = NvmeController(bus, BDF)
    with pytest.raises(KeyError):
        nvme.queue(5)


def test_nvme_unwritten_blocks_read_zero(mem, bus):
    nvme = NvmeController(bus, BDF)
    qid = nvme.create_queue_pair(4)
    dst = mem.alloc_dma_buffer(NVME_BLOCK_BYTES)
    mem.ram.write(dst, b"\xff" * 32)
    nvme.submit(qid, NvmeCommand(NvmeOpcode.READ, 1, lba=99, blocks=1, data_addr=dst))
    nvme.ring_doorbell(qid)
    assert mem.ram.read(dst, 32) == bytes(32)


def test_nvme_through_riommu(mem):
    """NVMe queues map naturally onto rIOMMU rings (paper §4).

    The SQ/CQ rings themselves are mapped through the rIOMMU (one
    long-lived rPTE each), and the data buffer through a churning ring.
    """
    from repro.devices.nvme import SQE_BYTES, CQE_BYTES

    hw = RIommuHardware()
    driver = RIommuDriver(mem, hw, BDF, Mode.RIOMMU)
    bus = DmaBus(mem, RIommuBackend(hw))
    nvme = NvmeController(bus, BDF)

    entries = 8
    sq_phys = mem.alloc_dma_buffer(entries * SQE_BYTES)
    cq_phys = mem.alloc_dma_buffer(entries * CQE_BYTES)
    sq_iova = riommu_map(
        driver,
        driver.create_ring(1),
        sq_phys,
        entries * SQE_BYTES,
        DmaDirection.BIDIRECTIONAL,
    )
    cq_iova = riommu_map(
        driver,
        driver.create_ring(1),
        cq_phys,
        entries * CQE_BYTES,
        DmaDirection.BIDIRECTIONAL,
    )
    qid = nvme.create_queue_pair(
        entries, sq_addr=sq_iova.packed(), cq_addr=cq_iova.packed()
    )

    data_rid = driver.create_ring(16)
    src = mem.alloc_dma_buffer(NVME_BLOCK_BYTES)
    mem.ram.write(src, b"ring protected")
    iova = riommu_map(
        driver, data_rid, src, NVME_BLOCK_BYTES, DmaDirection.BIDIRECTIONAL
    )
    command = NvmeCommand(NvmeOpcode.WRITE, 1, lba=0, blocks=1, data_addr=iova.packed())
    mem.ram.write(sq_phys, command.encode())  # host writes the SQE
    nvme.ring_doorbell(qid, sq_tail=1)
    riommu_unmap(driver, iova, end_of_burst=True)
    assert nvme.block(0)[:14] == b"ring protected"
    # The CQE landed in the host's completion ring, through the rIOMMU.
    from repro.devices.nvme import NvmeCompletion

    cqe = NvmeCompletion.decode(mem.ram.read(cq_phys, CQE_BYTES))
    assert cqe.command_id == 1


# -- AHCI ----------------------------------------------------------------------


def test_ahci_write_read_roundtrip(mem, bus):
    ahci = AhciController(bus, BDF)
    src = mem.alloc_dma_buffer(SECTOR_BYTES)
    mem.ram.write(src, b"sector zero")
    ahci.issue(AhciCommand(AhciOp.WRITE, lba=0, sectors=1, data_addr=src))
    completions = ahci.process()
    assert completions[0].ok
    dst = mem.alloc_dma_buffer(SECTOR_BYTES)
    ahci.issue(AhciCommand(AhciOp.READ, lba=0, sectors=1, data_addr=dst))
    ahci.process()
    assert mem.ram.read(dst, 11) == b"sector zero"


def test_ahci_out_of_order_completion(mem, bus):
    ahci = AhciController(bus, BDF, seed=3)
    buf = mem.alloc_dma_buffer(SECTOR_BYTES)
    slots = [ahci.issue(AhciCommand(AhciOp.WRITE, lba=i, sectors=1, data_addr=buf))
             for i in range(16)]
    completions = ahci.process(shuffle=True)
    completed = [c.slot for c in completions]
    assert sorted(completed) == slots
    assert completed != slots  # arbitrary order — why rIOMMU is inapplicable


def test_ahci_in_order_when_not_shuffled(mem, bus):
    ahci = AhciController(bus, BDF)
    buf = mem.alloc_dma_buffer(SECTOR_BYTES)
    for i in range(4):
        ahci.issue(AhciCommand(AhciOp.WRITE, lba=i, sectors=1, data_addr=buf))
    completed = [c.slot for c in ahci.process(shuffle=False)]
    assert completed == sorted(completed)


def test_ahci_slot_limit(mem, bus):
    ahci = AhciController(bus, BDF)
    buf = mem.alloc_dma_buffer(SECTOR_BYTES)
    for _ in range(AHCI_COMMAND_SLOTS):
        ahci.issue(AhciCommand(AhciOp.WRITE, lba=0, sectors=1, data_addr=buf))
    assert ahci.busy_slots == 32
    with pytest.raises(RuntimeError):
        ahci.issue(AhciCommand(AhciOp.WRITE, lba=0, sectors=1, data_addr=buf))


def test_ahci_bad_lba_fails(mem, bus):
    ahci = AhciController(bus, BDF, capacity_sectors=8)
    buf = mem.alloc_dma_buffer(SECTOR_BYTES)
    ahci.issue(AhciCommand(AhciOp.WRITE, lba=8, sectors=1, data_addr=buf))
    assert not ahci.process()[0].ok


def test_ahci_unwritten_sector_reads_zero(mem, bus):
    ahci = AhciController(bus, BDF)
    dst = mem.alloc_dma_buffer(SECTOR_BYTES)
    mem.ram.write(dst, b"\xaa" * 8)
    ahci.issue(AhciCommand(AhciOp.READ, lba=5, sectors=1, data_addr=dst))
    ahci.process()
    assert mem.ram.read(dst, 8) == bytes(8)


def test_ahci_multi_sector(mem, bus):
    ahci = AhciController(bus, BDF)
    src = mem.alloc_dma_buffer(4 * SECTOR_BYTES)
    payload = bytes(range(256)) * 8  # 2048 bytes
    mem.ram.write(src, payload)
    ahci.issue(AhciCommand(AhciOp.WRITE, lba=0, sectors=4, data_addr=src))
    ahci.process()
    for i in range(4):
        assert ahci.sector(i) == payload[i * SECTOR_BYTES : (i + 1) * SECTOR_BYTES]
