"""GROUTER — the GPU-centric data plane (paper §4).

Four mechanisms, each independently switchable for the Fig. 16 ablation:

- ``unified`` (UF): locality-aware unified data passing — Put stores on
  the producer's own GPU (zero-copy) and Get transfers once, directly
  to the consumer.  Disabled, storage falls back to a random GPU like
  NVSHMEM+.
- ``harvesting`` (BH): fine-grained bandwidth harvesting — parallel
  PCIe/NIC transfers with SLO-gated rate control (``Rate_least``
  reservations, idle bandwidth to the tightest SLO).
- ``topology_aware`` (TA): route GPUs are picked by NVLink connectivity
  and PCIe-switch layout; parallel NVLink paths via Algorithm 1.
- ``elastic_storage`` (ES): histogram-scaled memory pools, queue-aware
  eviction, and proactive migration/restore.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.common.errors import AllocationError
from repro.common.units import MS
from repro.dataplane.base import (
    CAT_CFN_CFN,
    CAT_GFN_GFN_CROSS,
    CAT_GFN_GFN_INTRA,
    CAT_GFN_HOST,
    CAT_RESTORE,
    IPC_MAP_LATENCY,
    SHM_ACCESS_LATENCY,
    DataPlane,
    QueueOracle,
)
from repro.functions.instance import FnContext
from repro.memory.elastic import ElasticPoolManager
from repro.memory.eviction import make_policy
from repro.routing.harvest import (
    parallel_nic_paths,
    pcie_host_paths,
    select_pcie_routes,
)
from repro.routing.nvlink import select_parallel_nvlink_paths
from repro.storage.objects import DataObject, DataRef
from repro.topology.cluster import ClusterTopology
from repro.topology.devices import Gpu
from repro.topology.node import NodeTopology
from repro.topology.routebook import route_book

# Floor on SLO slack when deriving Rate_least, to avoid infinite rates.
MIN_SLACK = 1 * MS

# Proactive restore only targets data whose consumer is near the head
# of the pending-request queue; restoring deeper entries just thrashes.
RESTORE_QUEUE_WINDOW = 4


__all__ = ["GRouterPlane", "QueueOracle"]


class GRouterPlane(DataPlane):
    """The GPU-centric data plane with all four mechanisms."""

    name = "grouter"

    def __init__(
        self,
        env,
        cluster: ClusterTopology,
        unified: bool = True,
        harvesting: bool = True,
        topology_aware: bool = True,
        elastic_storage: bool = True,
        eviction_policy: str = "queue-aware",
        proactive_restore: bool = True,
        min_pool: Optional[float] = None,
        seed: int = 7,
        **kwargs,
    ):
        kwargs.setdefault(
            "network_policy", "slo_gated" if harvesting else "maxmin"
        )
        kwargs.setdefault("chunked", True)
        super().__init__(env, cluster, **kwargs)
        self.unified = unified
        self.harvesting = harvesting
        self.topology_aware = topology_aware
        self.elastic_storage = elastic_storage
        self.proactive_restore = proactive_restore
        self.eviction = make_policy(eviction_policy)
        self._rng = random.Random(seed)
        self._evicted_from: dict[str, str] = {}  # object_id -> gpu id
        self._restoring: set[str] = set()  # in-flight restores
        self.elastic_managers: dict[str, ElasticPoolManager] = {}
        if elastic_storage:
            for device_id, pool in self.pools.items():
                manager_kwargs = {}
                if min_pool is not None:
                    manager_kwargs["min_pool"] = min_pool
                manager = ElasticPoolManager(env, pool, **manager_kwargs)
                manager.start()
                self.elastic_managers[device_id] = manager

    # -- SLO-aware rate control (§4.3.2) ------------------------------------
    @property
    def _rate_control_on(self) -> bool:
        # Rate_least reservations belong to the SLO-gated scheduler;
        # GROUTER-BH (max-min sharing, Fig. 17's strawman) runs without
        # them even though parallel paths stay enabled.
        return self.harvesting and self.network.policy == "slo_gated"

    def _rate_least(self, ctx: FnContext, size: float) -> float:
        """Rate_least = data_size / (L_slo - L_infer), via the deadline."""
        if not self._rate_control_on or ctx.slo_deadline is None:
            return 0.0
        slack = max(ctx.slo_deadline - self.env.now, MIN_SLACK)
        return size / slack

    def _transfer_kwargs(self, ctx: FnContext, size: float) -> dict:
        return {
            "min_rate": self._rate_least(ctx, size),
            "slo_deadline": (
                ctx.slo_deadline if self._rate_control_on else None
            ),
            "owner": ctx.request_id,
        }

    # -- elastic-storage hooks --------------------------------------------------
    def _notify_arrival(self, ctx: FnContext) -> None:
        manager = self.elastic_managers.get(ctx.device_id)
        if manager is not None:
            manager.notify_arrival(ctx.function_name)

    def _notify_put(self, device_id: str, function_name: str,
                    size: float) -> None:
        manager = self.elastic_managers.get(device_id)
        if manager is not None:
            manager.notify_put(function_name, size)

    def _notify_consume(self, obj: DataObject) -> None:
        device = self._gpu_location_of(obj)
        if device is None:
            return
        manager = self.elastic_managers.get(device)
        if manager is not None:
            manager.notify_consume(obj.producer)

    # -- Put ----------------------------------------------------------------
    def _put(self, ctx: FnContext, size: float, expected_consumers: int):
        obj = self._new_object(ctx, size, expected_consumers)
        self._notify_arrival(ctx)
        if not ctx.is_gpu:
            # cFn output already sits in host memory.
            yield self.env.timeout(SHM_ACCESS_LATENCY)
            self._store_on_host(obj, ctx.node.node_id)
            self.catalog.register(obj, ctx.node.node_id)
            return obj.to_ref()

        if self.unified:
            storage_device = ctx.device_id  # locality-aware: stay put
        else:
            storage_device = self._rng.choice(ctx.node.gpus).device_id
        placed = yield from self._store_on_gpu_or_spill(
            obj, storage_device, self.eviction, self.queue_oracle
        )
        if placed != storage_device:
            # Admission spill to host (severe memory pressure).
            yield from self._gpu_to_host_transfer(ctx, ctx.gpu, size)
        elif storage_device == ctx.device_id:
            yield self.env.timeout(IPC_MAP_LATENCY)  # zero-copy publish
        else:
            path = self._simple_gpu_to_gpu_path(
                ctx.gpu, self.cluster.gpu(storage_device)
            )
            yield from self._run_transfer(
                [path],
                size,
                CAT_GFN_GFN_INTRA,
                src=ctx.device_id,
                dst=storage_device,
                **self._transfer_kwargs(ctx, size),
            )
        if placed == storage_device:
            self._notify_put(storage_device, ctx.function_name, size)
        self.catalog.register(obj, ctx.node.node_id)
        return obj.to_ref()

    # -- Get ----------------------------------------------------------------
    def _get(self, ctx: FnContext, ref: DataRef):
        started = self.env.now
        node_id, obj = yield from self._lookup(ctx, ref)
        gpu_device = self._gpu_location_of(obj)

        if gpu_device is None:
            source, category = yield from self._get_from_host(
                ctx, obj, node_id
            )
        elif not ctx.is_gpu:
            yield from self._gpu_to_host_transfer(
                ctx, self.cluster.gpu(gpu_device), obj.size
            )
            source, category = gpu_device, CAT_GFN_HOST
        elif gpu_device == ctx.device_id:
            yield self.env.timeout(IPC_MAP_LATENCY)  # zero copy
            source, category = gpu_device, CAT_GFN_GFN_INTRA
        elif self.cluster.same_node(gpu_device, ctx.device_id):
            yield from self._intra_node_transfer(
                ctx, self.cluster.gpu(gpu_device), obj.size
            )
            source, category = gpu_device, CAT_GFN_GFN_INTRA
        else:
            yield from self._cross_node_transfer(
                ctx, self.cluster.gpu(gpu_device), obj.size
            )
            source, category = gpu_device, CAT_GFN_GFN_CROSS

        self._notify_consume(obj)
        self._note_consumed(ctx, obj)
        if self.elastic_storage and self.proactive_restore:
            self.env.process(self._restore_pass(ctx.node))
        return self._result(ref, started, source, category)

    # -- transfer patterns (§4.2.2 / §4.3.1) --------------------------------------
    def _host_paths(self, node: NodeTopology, gpu: Gpu, direction: str):
        if not self.harvesting:
            return [self._direct_host_path(node, gpu, direction)]
        routes = select_pcie_routes(
            node,
            gpu,
            topology_aware=self.topology_aware,
            network=self.network if self.topology_aware else None,
        )
        return pcie_host_paths(node, gpu, routes, direction)

    def _get_from_host(self, ctx: FnContext, obj: DataObject, node_id: str):
        """Serve an object whose bytes are in host memory."""
        src_node = self.cluster.node(node_id)
        if node_id != ctx.node.node_id:
            # Rare: host-resident data on another node (cFn output).
            yield from self._run_transfer(
                [self._host_to_host_path(src_node, ctx.node)],
                obj.size,
                "host-host",
                src=src_node.host.device_id,
                dst=ctx.node.host.device_id,
                owner=ctx.request_id,
            )
            # Concurrent gets of the same remote object both pay for the
            # wire transfer, but only the first to finish migrates the
            # replica; the loser would otherwise remove an object that
            # is no longer resident at the source.
            if self.host_stores[node_id].has(obj.object_id):
                self.host_stores[node_id].remove(obj)
                self._store_on_host(obj, ctx.node.node_id)
                self.catalog.move(obj.object_id, ctx.node.node_id)
        if not ctx.is_gpu:
            yield self.env.timeout(SHM_ACCESS_LATENCY)
            return ctx.node.host.device_id, CAT_CFN_CFN
        paths = self._host_paths(ctx.node, ctx.gpu, "from_host")
        yield from self._run_transfer(
            paths,
            obj.size,
            CAT_GFN_HOST,
            src=ctx.node.host.device_id,
            dst=ctx.device_id,
            pinned_node=ctx.node.node_id,
            **self._transfer_kwargs(ctx, obj.size),
        )
        return ctx.node.host.device_id, CAT_GFN_HOST

    def _gpu_to_host_transfer(self, ctx: FnContext, src_gpu: Gpu,
                              size: float):
        node = self.cluster.node_of_device(src_gpu.device_id)
        paths = self._host_paths(node, src_gpu, "to_host")
        yield from self._run_transfer(
            paths,
            size,
            CAT_GFN_HOST,
            src=src_gpu.device_id,
            dst=node.host.device_id,
            pinned_node=node.node_id,
            **self._transfer_kwargs(ctx, size),
        )

    def _intra_node_transfer(self, ctx: FnContext, src_gpu: Gpu,
                             size: float):
        if self.topology_aware:
            node = ctx.node
            paths = select_parallel_nvlink_paths(
                node, self.network, src_gpu, ctx.gpu
            ).paths
            if not paths:
                paths = [route_book(node).gpu_p2p(src_gpu.index, ctx.gpu.index)]
        else:
            paths = [self._simple_gpu_to_gpu_path(src_gpu, ctx.gpu)]
        yield from self._run_transfer(
            paths,
            size,
            CAT_GFN_GFN_INTRA,
            src=src_gpu.device_id,
            dst=ctx.device_id,
            **self._transfer_kwargs(ctx, size),
        )

    def _cross_node_transfer(self, ctx: FnContext, src_gpu: Gpu,
                             size: float):
        if self.harvesting:
            paths = parallel_nic_paths(
                self.cluster,
                src_gpu,
                ctx.gpu,
                topology_aware=self.topology_aware,
            )
        else:
            paths = []
        if not paths:
            paths = [self._gdr_path(src_gpu, ctx.gpu)]
        yield from self._run_transfer(
            paths,
            size,
            CAT_GFN_GFN_CROSS,
            src=src_gpu.device_id,
            dst=ctx.device_id,
            **self._transfer_kwargs(ctx, size),
        )

    # -- eviction + proactive restore (§4.4.2) --------------------------------------
    def _migrate_to_host(self, gpu_device_id: str, obj: DataObject):
        # Remember where the object lived so restore can bring it back.
        self._evicted_from[obj.object_id] = gpu_device_id
        node = self.cluster.node_of_device(gpu_device_id)
        gpu = self.cluster.gpu(gpu_device_id)
        paths = self._host_paths(node, gpu, "to_host")
        from repro.dataplane.base import CAT_MIGRATION

        yield from self._run_transfer(
            paths,
            obj.size,
            CAT_MIGRATION,
            src=gpu_device_id,
            dst=node.host.device_id,
            pinned_node=node.node_id,
        )
        # Consumed while the copy was in flight: nothing left to move.
        if obj.deleted or not self.gpu_stores[gpu_device_id].has(obj.object_id):
            self._evicted_from.pop(obj.object_id, None)
            return
        self.gpu_stores[gpu_device_id].remove(obj)
        self._store_on_host(obj, node.node_id)
        self._publish_evict(obj, gpu_device_id, node.host.device_id)

    def _restore_pass(self, node: NodeTopology):
        """Bring migrated-but-soon-needed objects back to GPU memory."""
        host_store = self.host_stores[node.node_id]
        oracle = self.queue_oracle
        candidates = []
        for obj in host_store.resident_objects():
            origin = self._evicted_from.get(obj.object_id)
            if origin is None or obj.deleted:
                continue
            if obj.object_id in self._restoring:
                continue
            position = (
                oracle.position_of(obj.object_id) if oracle is not None else None
            )
            if position is None or position >= RESTORE_QUEUE_WINDOW:
                continue
            candidates.append((position, obj, origin))
        candidates.sort(key=lambda entry: entry[0])
        for _position, obj, origin in candidates:
            store = self.gpu_stores[origin]
            headroom = self.storage_limit(origin) - store.resident_bytes
            if obj.size > headroom:
                continue
            if obj.deleted or not host_store.has(obj.object_id):
                continue
            self._restoring.add(obj.object_id)
            try:
                gpu = self.cluster.gpu(origin)
                paths = self._host_paths(node, gpu, "from_host")
                yield from self._run_transfer(
                    paths,
                    obj.size,
                    CAT_RESTORE,
                    src=node.host.device_id,
                    dst=origin,
                    pinned_node=node.node_id,
                )
                if obj.deleted or not host_store.has(obj.object_id):
                    continue  # consumed from host while we were copying
                host_store.remove(obj)
                try:
                    yield from self._store_on_gpu(obj, origin)
                except AllocationError:
                    # Lost the headroom race to a concurrent put: the
                    # object stays host-resident.
                    self._store_on_host(obj, node.node_id)
                    continue
                self._evicted_from.pop(obj.object_id, None)
            finally:
                self._restoring.discard(obj.object_id)
