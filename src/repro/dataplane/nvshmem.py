"""NVSHMEM+ — GPU-side storage without placement awareness (paper §3).

Intermediate data lives in a shared GPU memory space, bypassing host
memory — but the storage service cannot see where functions run, so it
assigns each object to a *random* GPU of the producer's node.  The
consequences the paper measures:

- **Redundant copies** (§3.1): producer -> storage GPU -> consumer GPU
  instead of one direct hop; cross-node exchanges bounce through a
  storage GPU on each side (three copies).
- **Single-link transfers** (§3.2): every hop uses the one direct
  NVLink/PCIe/NIC path; no harvesting.
- **Symmetric memory** (§6.5): NVSHMEM's symmetric heap reserves the
  same bytes on *every* GPU of the node, the memory bloat of Fig. 20(c).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.dataplane.base import (
    CAT_CFN_CFN,
    CAT_GFN_GFN_CROSS,
    CAT_GFN_GFN_INTRA,
    CAT_GFN_HOST,
    IPC_MAP_LATENCY,
    SHM_ACCESS_LATENCY,
    DataPlane,
)
from repro.functions.instance import FnContext
from repro.memory.eviction import LruPolicy
from repro.storage.objects import DataObject, DataRef
from repro.topology.cluster import ClusterTopology
from repro.topology.devices import Gpu
from repro.topology.node import NodeTopology

SYMMETRIC_TAG = "nvshmem-symmetric"


class NvshmemPlane(DataPlane):
    """GPU-side storage with random placement and single-path transfers."""

    name = "nvshmem+"

    def __init__(self, env, cluster: ClusterTopology, seed: int = 7, **kwargs):
        super().__init__(env, cluster, **kwargs)
        self._rng = random.Random(seed)
        self._eviction = LruPolicy()
        self.symmetric_overflows = 0
        # object_id -> (node_id, size) symmetric reservations to undo.
        self._symmetric: dict[str, tuple[str, float]] = {}

    # -- placement ----------------------------------------------------------
    def _pick_storage_gpu(self, node: NodeTopology) -> Gpu:
        """Random storage GPU: the service is blind to function placement."""
        return self._rng.choice(node.gpus)

    # -- symmetric heap accounting -----------------------------------------------
    def _reserve_symmetric(self, obj: DataObject, node: NodeTopology,
                           storage_gpu: Gpu) -> None:
        from repro.common.errors import AllocationError

        for gpu in node.gpus:
            if gpu.device_id == storage_gpu.device_id:
                continue
            try:
                self.device_memory[gpu.device_id].reserve(
                    SYMMETRIC_TAG, obj.size
                )
            except AllocationError:
                # A real symmetric heap would have failed the collective
                # allocation; we degrade gracefully under saturation and
                # surface the pressure through this counter instead.
                self.symmetric_overflows += 1
        self._symmetric[obj.object_id] = (node.node_id, obj.size)

    def _release_symmetric(self, obj: DataObject,
                           keep_device: Optional[str] = None) -> None:
        entry = self._symmetric.pop(obj.object_id, None)
        if entry is None:
            return
        node_id, size = entry
        node = self.cluster.node(node_id)
        for gpu in node.gpus:
            if gpu.device_id == keep_device:
                continue
            memory = self.device_memory[gpu.device_id]
            if memory.used_by(SYMMETRIC_TAG) >= size:
                memory.release(SYMMETRIC_TAG, size)

    def _destroy(self, obj: DataObject) -> None:
        # The symmetric heap frees everywhere at once, storage GPU
        # included (its bytes are freed by the store removal itself).
        storage_device = self._gpu_location_of(obj)
        self._release_symmetric(obj, keep_device=storage_device)
        super()._destroy(obj)

    # -- host<->GPU transfers (DeepPlan+ overrides with parallel PCIe) ---------
    def _host_to_gpu(self, node: NodeTopology, gpu: Gpu, size: float,
                     ctx: FnContext):
        yield from self._run_transfer(
            [self._direct_host_path(node, gpu, "from_host")],
            size,
            CAT_GFN_HOST,
            src=node.host.device_id,
            dst=gpu.device_id,
            pinned_node=node.node_id,
            owner=ctx.request_id,
        )

    def _gpu_to_host(self, node: NodeTopology, gpu: Gpu, size: float,
                     ctx: FnContext):
        yield from self._run_transfer(
            [self._direct_host_path(node, gpu, "to_host")],
            size,
            CAT_GFN_HOST,
            src=gpu.device_id,
            dst=node.host.device_id,
            pinned_node=node.node_id,
            owner=ctx.request_id,
        )

    # -- Put -----------------------------------------------------------------
    def _put(self, ctx: FnContext, size: float, expected_consumers: int):
        obj = self._new_object(ctx, size, expected_consumers)
        storage_gpu = self._pick_storage_gpu(ctx.node)
        placed = yield from self._store_on_gpu_or_spill(
            obj, storage_gpu.device_id, self._eviction
        )
        if placed != storage_gpu.device_id:
            # Admission spill: the object lives in host memory.
            if ctx.is_gpu:
                yield from self._gpu_to_host(ctx.node, ctx.gpu, size, ctx)
        else:
            self._reserve_symmetric(obj, ctx.node, storage_gpu)
            if not ctx.is_gpu:
                # cFn output starts in host memory; stage it up over PCIe.
                yield from self._host_to_gpu(ctx.node, storage_gpu, size, ctx)
            elif ctx.device_id == storage_gpu.device_id:
                # Lucky random placement: data is already local.
                yield self.env.timeout(IPC_MAP_LATENCY)
            else:
                path = self._simple_gpu_to_gpu_path(ctx.gpu, storage_gpu)
                yield from self._run_transfer(
                    [path],
                    size,
                    CAT_GFN_GFN_INTRA,
                    src=ctx.device_id,
                    dst=storage_gpu.device_id,
                    owner=ctx.request_id,
                )
        self.catalog.register(obj, ctx.node.node_id)
        return obj.to_ref()

    # -- Get -----------------------------------------------------------------
    def _get(self, ctx: FnContext, ref: DataRef):
        started = self.env.now
        node_id, obj = yield from self._lookup(ctx, ref)

        if node_id != ctx.node.node_id:
            yield from self._pull_cross_node(ctx, obj, node_id)
            node_id = ctx.node.node_id

        gpu_device = self._gpu_location_of(obj)
        if gpu_device is None:
            # Previously force-evicted to host memory.
            if ctx.is_gpu:
                yield from self._host_to_gpu(ctx.node, ctx.gpu, obj.size, ctx)
            else:
                yield self.env.timeout(SHM_ACCESS_LATENCY)
            source = ctx.node.host.device_id
            category = CAT_GFN_HOST if ctx.is_gpu else CAT_CFN_CFN
        elif not ctx.is_gpu:
            storage_gpu = self.cluster.gpu(gpu_device)
            yield from self._gpu_to_host(
                ctx.node, storage_gpu, obj.size, ctx
            )
            source, category = gpu_device, CAT_GFN_HOST
        elif gpu_device == ctx.device_id:
            yield self.env.timeout(IPC_MAP_LATENCY)
            source, category = gpu_device, CAT_GFN_GFN_INTRA
        else:
            storage_gpu = self.cluster.gpu(gpu_device)
            path = self._simple_gpu_to_gpu_path(storage_gpu, ctx.gpu)
            yield from self._run_transfer(
                [path],
                obj.size,
                CAT_GFN_GFN_INTRA,
                src=gpu_device,
                dst=ctx.device_id,
                owner=ctx.request_id,
            )
            source, category = gpu_device, CAT_GFN_GFN_INTRA
        self._note_consumed(ctx, obj)
        return self._result(ref, started, source, category)

    def _pull_cross_node(self, ctx: FnContext, obj: DataObject,
                         src_node_id: str):
        """Bounce the object through storage GPUs on both nodes (Fig. 4)."""
        src_device = self._gpu_location_of(obj)
        src_node = self.cluster.node(src_node_id)
        if src_device is None:
            # Evicted to host on the source node: stage back up first.
            staging = self._pick_storage_gpu(src_node)
            yield from self._host_to_gpu(src_node, staging, obj.size, ctx)
            self.host_stores[src_node_id].remove(obj)
            placed = yield from self._store_on_gpu_or_spill(
                obj, staging.device_id, self._eviction
            )
            if placed != staging.device_id:
                # Could not re-admit on any GPU: ship host-to-host.
                yield from self._run_transfer(
                    [self._host_to_host_path(src_node, ctx.node)],
                    obj.size,
                    CAT_GFN_GFN_CROSS,
                    src=src_node.host.device_id,
                    dst=ctx.node.host.device_id,
                    owner=ctx.request_id,
                )
                self.host_stores[src_node_id].remove(obj)
                self._store_on_host(obj, ctx.node.node_id)
                self.catalog.move(obj.object_id, ctx.node.node_id)
                return
            src_device = staging.device_id
        src_gpu = self.cluster.gpu(src_device)
        dst_storage = self._pick_storage_gpu(ctx.node)
        # Single-NIC GDR between the two storage GPUs.
        path = self._gdr_path(src_gpu, dst_storage)
        yield from self._run_transfer(
            [path],
            obj.size,
            CAT_GFN_GFN_CROSS,
            src=src_device,
            dst=dst_storage.device_id,
            owner=ctx.request_id,
        )
        self.gpu_stores[src_device].remove(obj)
        self._release_symmetric(obj)
        placed = yield from self._store_on_gpu_or_spill(
            obj, dst_storage.device_id, self._eviction
        )
        if placed == dst_storage.device_id:
            self._reserve_symmetric(obj, ctx.node, dst_storage)
        self.catalog.move(obj.object_id, ctx.node.node_id)
