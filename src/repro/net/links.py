"""Directed link model.

A :class:`Link` is one direction of a physical interconnect (NVLink,
PCIe, NIC, node fabric, host shared memory).  Full-duplex hardware is
modelled as two independent directed links, which matches how NVLink and
PCIe bandwidths are quoted (per direction).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LinkKind(enum.Enum):
    """Physical interconnect class a link belongs to."""

    NVLINK = "nvlink"
    PCIE = "pcie"
    NIC = "nic"
    FABRIC = "fabric"  # the inter-node switch fabric
    SHM = "shm"  # host shared memory (cFn-cFn)


@dataclass(frozen=True)
class Link:
    """One direction of a physical interconnect.

    Attributes
    ----------
    link_id:
        Unique name, e.g. ``"n0.nvlink.g1>g3"``.
    src, dst:
        Device ids of the endpoints (see :mod:`repro.topology`).
    capacity:
        Bytes per second in this direction.
    kind:
        Interconnect class; used by routing policies to restrict path
        search (e.g. NVLink-only parallel paths).
    latency:
        Per-traversal propagation latency in seconds (one chunk hop).
    """

    link_id: str
    src: str
    dst: str
    capacity: float
    kind: LinkKind
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link {self.link_id}: capacity must be positive")
        if self.latency < 0:
            raise ValueError(f"link {self.link_id}: negative latency")

    def __repr__(self) -> str:
        gbps = self.capacity / 1e9
        return f"<Link {self.link_id} {self.src}->{self.dst} {gbps:.1f}GB/s>"
