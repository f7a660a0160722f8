"""Single-server GPU topologies and the four evaluation presets.

The paper evaluates on four server types; each is reproduced here with
its published interconnect layout:

- **DGX-V100** (p3.16xlarge): 8 V100s in the DGX-1 hybrid cube-mesh.
  NVLink2 at 24 GB/s per link; 8 GPU pairs have double links (48 GB/s),
  8 pairs single links, and 12 of the 28 pairs have no direct NVLink —
  the 28.6% / 42.9% asymmetry statistics of §3.2.2 hold exactly.
- **DGX-A100** (p4d.24xlarge): 8 A100s on an NVSwitch (uniform
  300 GB/s per-GPU port), 8×200 Gbps NICs.
- **H800 node**: 8 H800s on an NVSwitch at 200 GB/s, used by the LLM
  evaluation (§6.4).
- **A10 node**: 4 A10s with no NVLink at all (§6.5).

GPUs sharing a PCIe switch share a single uplink to host memory, which
is what makes naive route-GPU selection collapse (§3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.errors import TopologyError
from repro.common.units import GB, GBIT_PER_S, US
from repro.net.links import Link, LinkKind
from repro.topology.devices import (
    Gpu,
    HostMemory,
    Nic,
    PcieSwitch,
    gpu_id,
    host_id,
    nic_id,
    switch_id,
)

NVLINK_LATENCY = 2 * US
PCIE_LATENCY = 2 * US
NIC_LATENCY = 5 * US

# Effective per-direction bandwidths (published specs, derated to
# realistically achievable transfer rates).
V100_NVLINK_BW = 24 * GB  # per link; double-link pairs reach 48 GB/s
A100_NVSWITCH_BW = 300 * GB
H800_NVSWITCH_BW = 200 * GB
PCIE3_BW = 12 * GB
PCIE4_BW = 24 * GB
PCIE5_BW = 48 * GB

# The DGX-1V hybrid cube-mesh: (gpu_a, gpu_b) -> number of NVLink lanes.
DGX1V_NVLINK_LANES: dict[tuple[int, int], int] = {
    (0, 1): 1, (0, 2): 1, (0, 3): 2, (0, 4): 2,
    (1, 2): 2, (1, 3): 1, (1, 5): 2,
    (2, 3): 1, (2, 6): 2,
    (3, 7): 2,
    (4, 5): 1, (4, 6): 1, (4, 7): 2,
    (5, 6): 2, (5, 7): 1,
    (6, 7): 1,
}


@dataclass(frozen=True)
class NodeSpec:
    """Declarative description of one server type."""

    name: str
    num_gpus: int
    gpu_memory: float
    pcie_bandwidth: float
    switch_groups: tuple[tuple[int, ...], ...]
    nics_per_switch: int
    nic_bandwidth: float
    host_memory: float = 256 * GB
    # Either explicit NVLink lanes (asymmetric mesh) ...
    nvlink_lanes: Optional[dict[tuple[int, int], int]] = None
    nvlink_lane_bandwidth: float = V100_NVLINK_BW
    # ... or a uniform NVSwitch port bandwidth (symmetric).
    nvswitch_bandwidth: Optional[float] = None


class NodeTopology:
    """A single server's devices plus all directed links between them."""

    def __init__(self, spec: NodeSpec, node_index: int) -> None:
        self.spec = spec
        self.node_index = node_index
        self.node_id = f"n{node_index}"
        self.gpus: list[Gpu] = [
            Gpu(gpu_id(node_index, i), self.node_id, i, spec.gpu_memory)
            for i in range(spec.num_gpus)
        ]
        self.host = HostMemory(
            host_id(node_index), self.node_id, spec.host_memory
        )
        self.switches: list[PcieSwitch] = []
        self.nics: list[Nic] = []
        self._links: dict[tuple[str, str], Link] = {}
        self._gpu_switch: dict[str, str] = {}
        self._switch_nics: dict[str, list[str]] = {}
        self._nvlink_capacity: dict[tuple[int, int], float] = {}
        self.nvswitch_id: Optional[str] = None
        self._build(spec, node_index)

    # -- construction ---------------------------------------------------
    def _build(self, spec: NodeSpec, node: int) -> None:
        seen = set()
        for group in spec.switch_groups:
            seen.update(group)
        if seen != set(range(spec.num_gpus)):
            raise TopologyError(
                f"{spec.name}: switch groups must cover every GPU exactly"
            )

        for sw_index, group in enumerate(spec.switch_groups):
            switch = PcieSwitch(switch_id(node, sw_index), self.node_id, sw_index)
            self.switches.append(switch)
            self._switch_nics[switch.device_id] = []
            # GPU <-> switch, per GPU, full PCIe bandwidth each way.
            for g in group:
                gpu = self.gpus[g]
                self._gpu_switch[gpu.device_id] = switch.device_id
                self._add_duplex(
                    gpu.device_id,
                    switch.device_id,
                    spec.pcie_bandwidth,
                    LinkKind.PCIE,
                    PCIE_LATENCY,
                )
            # Switch <-> host: ONE shared uplink per switch.
            self._add_duplex(
                switch.device_id,
                self.host.device_id,
                spec.pcie_bandwidth,
                LinkKind.PCIE,
                PCIE_LATENCY,
            )
            # NICs hang off the switch at NIC line rate.
            for k in range(spec.nics_per_switch):
                nic_index = sw_index * spec.nics_per_switch + k
                nic = Nic(
                    nic_id(node, nic_index),
                    self.node_id,
                    nic_index,
                    spec.nic_bandwidth,
                )
                self.nics.append(nic)
                self._switch_nics[switch.device_id].append(nic.device_id)
                self._add_duplex(
                    switch.device_id,
                    nic.device_id,
                    spec.nic_bandwidth,
                    LinkKind.NIC,
                    NIC_LATENCY,
                )

        if spec.nvlink_lanes is not None:
            for (a, b), lanes in spec.nvlink_lanes.items():
                capacity = lanes * spec.nvlink_lane_bandwidth
                self._nvlink_capacity[(a, b)] = capacity
                self._nvlink_capacity[(b, a)] = capacity
                self._add_duplex(
                    self.gpus[a].device_id,
                    self.gpus[b].device_id,
                    capacity,
                    LinkKind.NVLINK,
                    NVLINK_LATENCY,
                )
        elif spec.nvswitch_bandwidth is not None:
            self.nvswitch_id = f"{self.node_id}.nvsw"
            for gpu in self.gpus:
                self._add_duplex(
                    gpu.device_id,
                    self.nvswitch_id,
                    spec.nvswitch_bandwidth,
                    LinkKind.NVLINK,
                    NVLINK_LATENCY,
                )
            for a in range(spec.num_gpus):
                for b in range(spec.num_gpus):
                    if a != b:
                        self._nvlink_capacity[(a, b)] = spec.nvswitch_bandwidth

    def _add_duplex(
        self, a: str, b: str, capacity: float, kind: LinkKind, latency: float
    ) -> None:
        for src, dst in ((a, b), (b, a)):
            key = (src, dst)
            if key in self._links:
                raise TopologyError(f"duplicate link {src}->{dst}")
            self._links[key] = Link(
                link_id=f"{src}>{dst}",
                src=src,
                dst=dst,
                capacity=capacity,
                kind=kind,
                latency=latency,
            )

    # -- queries -----------------------------------------------------------
    @property
    def has_nvswitch(self) -> bool:
        return self.nvswitch_id is not None

    @property
    def has_nvlink(self) -> bool:
        return bool(self._nvlink_capacity)

    def link(self, src: str, dst: str) -> Link:
        """The directed link from *src* to *dst*."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src} -> {dst}") from None

    def all_links(self) -> Iterable[Link]:
        return self._links.values()

    def gpu(self, index: int) -> Gpu:
        try:
            return self.gpus[index]
        except IndexError:
            raise TopologyError(
                f"{self.node_id}: no GPU index {index}"
            ) from None

    def nvlink_capacity(self, a: int, b: int) -> float:
        """Direct NVLink capacity between GPU indexes, 0 if absent."""
        return self._nvlink_capacity.get((a, b), 0.0)

    def nvlink_neighbors(self, index: int) -> list[int]:
        """GPU indexes directly NVLink-connected to *index*."""
        return sorted(
            b for (a, b) in self._nvlink_capacity if a == index
        )

    def switch_of(self, gpu: Gpu) -> str:
        """The PCIe switch a GPU hangs off."""
        return self._gpu_switch[gpu.device_id]

    def gpus_on_switch(self, switch_device_id: str) -> list[Gpu]:
        return [
            gpu
            for gpu in self.gpus
            if self._gpu_switch[gpu.device_id] == switch_device_id
        ]

    def nics_of_switch(self, switch_device_id: str) -> list[str]:
        return list(self._switch_nics.get(switch_device_id, []))

    def nic_for_gpu(self, gpu: Gpu) -> Nic:
        """The NIC nearest to *gpu* (same PCIe switch, else any)."""
        nic_ids = self.nics_of_switch(self.switch_of(gpu))
        if nic_ids:
            return self._nic_by_id(nic_ids[0])
        if not self.nics:
            raise TopologyError(f"{self.node_id} has no NICs")
        return self.nics[0]

    def _nic_by_id(self, device_id: str) -> Nic:
        for nic in self.nics:
            if nic.device_id == device_id:
                return nic
        raise TopologyError(f"unknown NIC {device_id}")

    def shares_pcie_switch(self, a: Gpu, b: Gpu) -> bool:
        return self.switch_of(a) == self.switch_of(b)

    def __repr__(self) -> str:
        return (
            f"<NodeTopology {self.node_id} {self.spec.name} "
            f"{len(self.gpus)} GPUs>"
        )


# -- presets ----------------------------------------------------------------

def dgx_v100_spec() -> NodeSpec:
    """DGX-V100 (p3.16xlarge): asymmetric hybrid cube-mesh."""
    return NodeSpec(
        name="dgx-v100",
        num_gpus=8,
        gpu_memory=16 * GB,
        pcie_bandwidth=PCIE3_BW,
        switch_groups=((0, 1), (2, 3), (4, 5), (6, 7)),
        nics_per_switch=1,
        nic_bandwidth=100 * GBIT_PER_S,
        host_memory=244 * GB,
        nvlink_lanes=dict(DGX1V_NVLINK_LANES),
        nvlink_lane_bandwidth=V100_NVLINK_BW,
    )


def dgx_a100_spec() -> NodeSpec:
    """DGX-A100 (p4d.24xlarge): NVSwitch, 8x200Gbps NICs."""
    return NodeSpec(
        name="dgx-a100",
        num_gpus=8,
        gpu_memory=40 * GB,
        pcie_bandwidth=PCIE4_BW,
        switch_groups=((0, 1), (2, 3), (4, 5), (6, 7)),
        nics_per_switch=2,
        nic_bandwidth=200 * GBIT_PER_S,
        host_memory=1152 * GB,
        nvswitch_bandwidth=A100_NVSWITCH_BW,
    )


def h800_spec() -> NodeSpec:
    """8xH800 node used in the LLM evaluation (§6.4)."""
    return NodeSpec(
        name="h800",
        num_gpus=8,
        gpu_memory=80 * GB,
        pcie_bandwidth=PCIE5_BW,
        switch_groups=((0, 1), (2, 3), (4, 5), (6, 7)),
        nics_per_switch=2,
        nic_bandwidth=200 * GBIT_PER_S,
        host_memory=1024 * GB,
        nvswitch_bandwidth=H800_NVSWITCH_BW,
    )


def a10_spec() -> NodeSpec:
    """4xA10 server without NVLink (§6.5)."""
    return NodeSpec(
        name="a10",
        num_gpus=4,
        gpu_memory=24 * GB,
        pcie_bandwidth=PCIE4_BW,
        switch_groups=((0,), (1,), (2,), (3,)),
        nics_per_switch=1,
        nic_bandwidth=100 * GBIT_PER_S,
        host_memory=128 * GB,
    )


_SPECS = {
    "dgx-v100": dgx_v100_spec,
    "dgx-a100": dgx_a100_spec,
    "h800": h800_spec,
    "a10": a10_spec,
}


def node_spec(name: str) -> NodeSpec:
    """Look up a preset spec by name."""
    try:
        return _SPECS[name]()
    except KeyError:
        raise TopologyError(
            f"unknown node preset {name!r}; choose from {sorted(_SPECS)}"
        ) from None
