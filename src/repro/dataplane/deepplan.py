"""DeepPlan+ — NVSHMEM+ with naive parallel-PCIe host transfers (§6).

DeepPlan's direct-host-access trick parallelizes gFn-host transfers
across all PCIe links of the node — but the storage service performing
them is neither placement- nor topology-aware:

- route GPUs are picked per PCIe switch regardless of NVLink
  connectivity, so on DGX-V100 some lanes relay over PCIe peer-to-peer
  and congest the source's own uplink (§3.2.2);
- bandwidth is shared max-min with no partitioning, so co-located
  workflows interfere (Fig. 5(b), Fig. 17).
"""

from __future__ import annotations

from repro.dataplane.base import CAT_GFN_HOST
from repro.dataplane.nvshmem import NvshmemPlane
from repro.functions.instance import FnContext
from repro.routing.harvest import pcie_host_paths, select_pcie_routes
from repro.topology.devices import Gpu
from repro.topology.node import NodeTopology


class DeepPlanPlane(NvshmemPlane):
    """NVSHMEM+ plus topology-blind parallel PCIe for host transfers."""

    name = "deepplan+"

    def _parallel_host_paths(self, node: NodeTopology, gpu: Gpu,
                             direction: str):
        routes = select_pcie_routes(node, gpu, topology_aware=False)
        return pcie_host_paths(node, gpu, routes, direction)

    def _host_to_gpu(self, node: NodeTopology, gpu: Gpu, size: float,
                     ctx: FnContext):
        paths = self._parallel_host_paths(node, gpu, "from_host")
        yield from self._run_transfer(
            paths,
            size,
            CAT_GFN_HOST,
            chunked=True,
            pinned_node=node.node_id,
            owner=ctx.request_id,
        )

    def _gpu_to_host(self, node: NodeTopology, gpu: Gpu, size: float,
                     ctx: FnContext):
        paths = self._parallel_host_paths(node, gpu, "to_host")
        yield from self._run_transfer(
            paths,
            size,
            CAT_GFN_HOST,
            chunked=True,
            pinned_node=node.node_id,
            owner=ctx.request_id,
        )
