"""Unit + property tests for the rIOMMU data structures (Figure 9)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    MAX_OFFSET,
    MAX_RENTRY,
    MAX_RID,
    RDevice,
    RIova,
    RPte,
    RRing,
    pack_iova,
    unpack_iova,
)
from repro.core.structures import RPTE_BYTES
from repro.dma import DmaDirection
from repro.memory import CoherencyDomain, MemorySystem


# -- rIOVA packing ---------------------------------------------------------


def test_pack_unpack_simple():
    iova = unpack_iova(pack_iova(offset=100, rentry=7, rid=3))
    assert (iova.offset, iova.rentry, iova.rid) == (100, 7, 3)


def test_pack_fits_64_bits():
    packed = pack_iova(MAX_OFFSET, MAX_RENTRY, MAX_RID)
    assert packed < 1 << 64


def test_pack_validates_fields():
    with pytest.raises(ValueError):
        pack_iova(MAX_OFFSET + 1, 0, 0)
    with pytest.raises(ValueError):
        pack_iova(0, MAX_RENTRY + 1, 0)
    with pytest.raises(ValueError):
        pack_iova(0, 0, MAX_RID + 1)
    with pytest.raises(ValueError):
        pack_iova(-1, 0, 0)


def test_with_offset():
    iova = RIova(offset=0, rentry=5, rid=1)
    moved = iova.with_offset(99)
    assert moved.offset == 99 and moved.rentry == 5 and moved.rid == 1
    assert type(moved) is RIova


def test_riova_record_contract():
    """RIova is tuple-backed but keeps the frozen-record contract."""
    iova = RIova(offset=7, rentry=5, rid=1)
    assert RIova(7, 5, 1) == iova
    assert RIova(7, 5, 2) != iova
    assert hash(RIova(7, 5, 1)) == hash(iova)
    assert len({iova, RIova(7, 5, 1)}) == 1
    assert repr(iova) == "RIova(offset=7, rentry=5, rid=1)"
    assert iova.packed() == pack_iova(7, 5, 1)
    with pytest.raises(AttributeError):
        iova.offset = 0
    with pytest.raises(AttributeError):
        iova.extra = 0
    again = pickle.loads(pickle.dumps(iova))
    assert again == iova and type(again) is RIova


@given(
    st.integers(min_value=0, max_value=MAX_OFFSET),
    st.integers(min_value=0, max_value=MAX_RENTRY),
    st.integers(min_value=0, max_value=MAX_RID),
)
def test_property_pack_roundtrip(offset, rentry, rid):
    iova = unpack_iova(pack_iova(offset, rentry, rid))
    assert (iova.offset, iova.rentry, iova.rid) == (offset, rentry, rid)
    assert iova.packed() == pack_iova(offset, rentry, rid)


# -- rPTE encoding -----------------------------------------------------------


def test_rpte_encode_decode():
    pte = RPte(phys_addr=0x12345678, size=2048, direction=DmaDirection.TO_DEVICE, valid=True)
    again = RPte.decode(pte.encode())
    assert again == pte


def test_rpte_decode_rejects_bad_length():
    with pytest.raises(ValueError):
        RPte.decode(b"\x00" * 8)


def test_rpte_encode_is_128_bits():
    assert len(RPte().encode()) == RPTE_BYTES == 16


def test_rpte_copy_is_value_copy():
    pte = RPte(phys_addr=1, size=2, direction=DmaDirection.FROM_DEVICE, valid=True)
    copy = pte.copy()
    copy.valid = False
    assert pte.valid


@given(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=(1 << 30) - 1),
    st.sampled_from(list(DmaDirection)),
    st.booleans(),
)
def test_property_rpte_roundtrip(phys, size, direction, valid):
    pte = RPte(phys_addr=phys, size=size, direction=direction, valid=valid)
    assert RPte.decode(pte.encode()) == pte


# -- rRING / rDEVICE -----------------------------------------------------------


@pytest.fixture
def mem():
    return MemorySystem(size_bytes=1 << 24)


def test_rring_write_read_pte(mem):
    ring = RRing(mem, CoherencyDomain(coherent=True), size=16)
    pte = RPte(phys_addr=0x7000, size=100, direction=DmaDirection.FROM_DEVICE, valid=True)
    ring.write_pte(3, pte)
    assert ring.read_pte(3) == pte


def test_rring_entry_bounds(mem):
    ring = RRing(mem, CoherencyDomain(coherent=True), size=4)
    with pytest.raises(IndexError):
        ring.entry_addr(4)
    with pytest.raises(IndexError):
        ring.entry_addr(-1)


def test_rring_size_bounds(mem):
    with pytest.raises(ValueError):
        RRing(mem, CoherencyDomain(), size=0)
    with pytest.raises(ValueError):
        RRing(mem, CoherencyDomain(), size=MAX_RENTRY + 2)


def test_rring_hardware_read_checks_coherency(mem):
    from repro.memory import StaleReadError

    domain = CoherencyDomain(coherent=False)
    ring = RRing(mem, domain, size=4)
    ring.write_pte(0, RPte(valid=True, size=10))
    with pytest.raises(StaleReadError):
        ring.hardware_read_pte(0)  # not synced
    domain.sync_mem(ring.entry_addr(0), 16)
    assert ring.hardware_read_pte(0).valid


def test_rring_table_memory_is_pinned(mem):
    ring = RRing(mem, CoherencyDomain(coherent=True), size=8)
    assert mem.allocator.is_pinned(ring.table_addr)


def test_rdevice_add_and_get_rings(mem):
    device = RDevice(mem, CoherencyDomain(coherent=True), bdf=0x300)
    rid0 = device.add_ring(8)
    rid1 = device.add_ring(16)
    assert (rid0, rid1) == (0, 1)
    assert device.size == 2
    assert device.ring(rid1).size == 16
    with pytest.raises(IndexError):
        device.ring(2)


def test_rring_software_fields_start_zero(mem):
    ring = RRing(mem, CoherencyDomain(coherent=True), size=8)
    assert ring.tail == 0 and ring.nmapped == 0
