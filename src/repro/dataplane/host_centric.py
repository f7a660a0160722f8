"""INFless+ — the host-centric baseline data plane (paper §2.2).

All intermediate data lives in host-side shared-memory storage.  Every
gFn-gFn exchange therefore costs two PCIe copies (GPU -> host -> GPU),
and cross-node exchanges additionally cross the network host-to-host.
cFn-cFn exchanges through shared memory are nearly free, which is why
the paper reports them as negligible.
"""

from __future__ import annotations

from repro.dataplane.base import (
    CAT_CFN_CFN,
    CAT_GFN_HOST,
    SHM_ACCESS_LATENCY,
    DataPlane,
)
from repro.functions.instance import FnContext
from repro.storage.objects import DataRef

CAT_HOST_HOST = "host-host"


class HostCentricPlane(DataPlane):
    """Host-memory storage with direct (single-link) PCIe copies."""

    name = "infless+"

    def _put(self, ctx: FnContext, size: float, expected_consumers: int):
        obj = self._new_object(ctx, size, expected_consumers)
        if ctx.is_gpu:
            # Device-to-host copy over the local PCIe uplink.
            path = self._direct_host_path(ctx.node, ctx.gpu, "to_host")
            yield from self._run_transfer(
                [path],
                size,
                CAT_GFN_HOST,
                src=ctx.device_id,
                dst=ctx.node.host.device_id,
                pinned_node=ctx.node.node_id,
                owner=ctx.request_id,
            )
        else:
            # cFn output is already in host memory (shared-memory map).
            yield self.env.timeout(SHM_ACCESS_LATENCY)
        self._store_on_host(obj, ctx.node.node_id)
        self.catalog.register(obj, ctx.node.node_id)
        return obj.to_ref()

    def _get(self, ctx: FnContext, ref: DataRef):
        started = self.env.now
        node_id, obj = yield from self._lookup(ctx, ref)
        src_node = self.cluster.node(node_id)

        if node_id != ctx.node.node_id:
            # Pull the object host-to-host over the NIC, then serve it
            # from the local host store.
            path = self._host_to_host_path(src_node, ctx.node)
            yield from self._run_transfer(
                [path],
                obj.size,
                CAT_HOST_HOST,
                src=src_node.host.device_id,
                dst=ctx.node.host.device_id,
                owner=ctx.request_id,
            )
            self.host_stores[node_id].remove(obj)
            self._store_on_host(obj, ctx.node.node_id)
            self.catalog.move(obj.object_id, ctx.node.node_id)

        if ctx.is_gpu:
            path = self._direct_host_path(ctx.node, ctx.gpu, "from_host")
            yield from self._run_transfer(
                [path],
                obj.size,
                CAT_GFN_HOST,
                src=ctx.node.host.device_id,
                dst=ctx.device_id,
                pinned_node=ctx.node.node_id,
                owner=ctx.request_id,
            )
            category = CAT_GFN_HOST
        else:
            yield self.env.timeout(SHM_ACCESS_LATENCY)
            category = CAT_CFN_CFN
        source = obj.host_replicas()[0].device_id
        self._note_consumed(ctx, obj)
        return self._result(ref, started, source, category)
