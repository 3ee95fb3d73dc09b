"""Short spellings of the request protocol for tests.

Each helper is one ``map_request``/``unmap_request`` call; they work on
a :class:`~repro.kernel.dma_api.DmaApi` or on either driver.
"""

from repro.core.structures import RIova, unpack_iova
from repro.dma import DmaDirection, MapRequest, UnmapRequest


def dma_map(
    target, phys_addr: int, size: int, direction: DmaDirection, ring=None
) -> int:
    """Map a buffer; returns its device address."""
    request = MapRequest(
        phys_addr=phys_addr, size=size, direction=direction, ring=ring
    )
    return target.map_request(request).device_addr


def dma_unmap(target, device_addr: int, end_of_burst: bool = False) -> int:
    """Unmap a device address; returns the physical address."""
    request = UnmapRequest(device_addr=device_addr, end_of_burst=end_of_burst)
    return target.unmap_request(request).phys_addr


def riommu_map(
    driver, rid: int, phys_addr: int, size: int, direction: DmaDirection
) -> RIova:
    """Map into an rIOMMU ring; returns the unpacked rIOVA."""
    return unpack_iova(dma_map(driver, phys_addr, size, direction, ring=rid))


def riommu_unmap(driver, iova: RIova, end_of_burst: bool = False) -> int:
    """Unmap an rIOVA; returns the physical address."""
    return dma_unmap(driver, iova.packed(), end_of_burst)
