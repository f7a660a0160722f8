"""Data-plane base: the unified Put/Get API and shared runtime.

Every data plane (GROUTER and the three baselines) exposes the same
two-call interface the paper describes in §4.2.1:

- ``put(ctx, size)``    — a function stores intermediate data, getting a
  globally unique :class:`~repro.storage.DataRef` back.
- ``get(ctx, ref)``     — a downstream function materializes the data on
  its own device; the call completes when the last byte arrives.

The planes differ *only* in where bytes live and which paths move them;
the shared runtime (per-GPU pools and stores, host stores, catalog,
access control, flow network, transfer engine, metrics) lives here.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.common.errors import StorageError
from repro.common.ids import IdGenerator
from repro.common.units import MB, US
from repro.functions.instance import FnContext
from repro.memory.device import AllocationCostModel, DeviceMemory
from repro.memory.pool import MemoryPool
from repro.net.network import FlowNetwork
from repro.net.transfer import Path, TransferEngine
from repro.sim.core import Environment, Process
from repro.sim.resources import Container
from repro.storage.catalog import AccessController, DataCatalog
from repro.storage.objects import DataObject, DataRef
from repro.storage.stores import GpuStore, HostStore
from repro.telemetry.events import PlaneInfo, StoreEvict, StoreGet
from repro.topology.cluster import ClusterTopology
from repro.topology.routebook import cluster_route_book, route_book
from repro.workflow.dag import Workflow

# Control-plane cost floors.
LOOKUP_LATENCY = 3 * US  # local mapping-table lookup
GLOBAL_LOOKUP_LATENCY = 50 * US  # fall back to the global table
IPC_MAP_LATENCY = 10 * US  # CUDA-IPC handle open + map
SHM_ACCESS_LATENCY = 30 * US  # host shared-memory attach (cFn-cFn)

# Default pinned staging-ring size per node for PCIe transfers.
PINNED_RING_BYTES = 64 * MB

# Transfer categories used in metrics (matches paper Fig. 3 breakdown).
CAT_GFN_GFN_INTRA = "gfn-gfn-intra"
CAT_GFN_GFN_CROSS = "gfn-gfn-cross"
CAT_GFN_HOST = "gfn-host"
CAT_CFN_CFN = "cfn-cfn"
CAT_MIGRATION = "migration"
CAT_RESTORE = "restore"


class QueueOracle(Protocol):
    """Answers "how close is this object's request to the queue head?".

    The platform's pending-request index implements this; planes that
    rank eviction victims by request position (GROUTER §4.4.2 evicts
    data whose consumer is furthest from execution) consult it through
    :attr:`DataPlane.queue_oracle`.  ``None`` means "not pending".
    """

    def position_of(self, object_id: str) -> Optional[int]:
        ...


@dataclass
class TransferRecord:
    """One completed data movement, for experiment accounting."""

    category: str
    size: float
    started_at: float
    finished_at: float
    src: str
    dst: str
    copies: int = 1

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class PlaneMetrics:
    """Counters a data plane accumulates while serving Put/Get.

    ``records`` holds one :class:`TransferRecord` per completed
    movement for experiment accounting (latency percentiles by
    category).  That list is the one per-request structure a plane
    grows without bound, so streaming runs
    (``ServerlessPlatform(keep_results=False)``) set
    ``keep_records=False``: counters and byte totals stay exact, the
    per-transfer records are dropped (counted in ``dropped_records``),
    and :meth:`latencies` raises rather than silently returning a
    truncated distribution.
    """

    puts: int = 0
    gets: int = 0
    copies: int = 0
    control_ops: int = 0
    admission_spills: int = 0
    keep_records: bool = True
    dropped_records: int = 0
    records: list[TransferRecord] = field(default_factory=list)
    _category_bytes: dict = field(default_factory=dict)

    def record(self, record: TransferRecord) -> None:
        if self.keep_records:
            self.records.append(record)
        else:
            self.dropped_records += 1
        self.copies += record.copies
        self._category_bytes[record.category] = (
            self._category_bytes.get(record.category, 0.0) + record.size
        )

    def latencies(self, category: Optional[str] = None) -> list[float]:
        if self.dropped_records:
            raise RuntimeError(
                "per-transfer records were dropped (keep_records=False); "
                "latency distributions are unavailable on streaming runs"
            )
        return [
            r.latency
            for r in self.records
            if category is None or r.category == category
        ]

    def bytes_moved(self, category: Optional[str] = None) -> float:
        if not self.keep_records:
            if category is None:
                return sum(self._category_bytes.values())
            return self._category_bytes.get(category, 0.0)
        return sum(
            r.size
            for r in self.records
            if category is None or r.category == category
        )


@dataclass
class GetResult:
    """Outcome of a completed ``get``."""

    ref: DataRef
    latency: float
    source_device: str
    category: str


class DataPlane(abc.ABC):
    """Abstract data plane over a cluster; see module docstring."""

    name = "abstract"

    def __init__(
        self,
        env: Environment,
        cluster: ClusterTopology,
        network_policy: str = "maxmin",
        chunked: bool = False,
        cost_model: Optional[AllocationCostModel] = None,
        record_timelines: bool = False,
        storage_limit_fraction: Optional[float] = None,
        pool_prewarm: float = 300 * MB,
    ) -> None:
        self.env = env
        self.cluster = cluster
        # Route decisions read candidate paths from the cluster's
        # interned route book; link load is read live from
        # self.network at decision time.
        self.route_book = cluster_route_book(cluster)
        self.network = FlowNetwork(env, policy=network_policy)
        self.engine = TransferEngine(env, self.network)
        self.chunked = chunked
        self.cost_model = cost_model if cost_model is not None else AllocationCostModel()
        self.storage_limit_fraction = storage_limit_fraction
        self.ids = IdGenerator()
        self.acl = AccessController()
        self.catalog = DataCatalog([node.node_id for node in cluster.nodes])
        self.metrics = PlaneMetrics()
        self.queue_oracle: Optional[QueueOracle] = None

        self.device_memory: dict[str, DeviceMemory] = {}
        self.pools: dict[str, MemoryPool] = {}
        self.gpu_stores: dict[str, GpuStore] = {}
        self.host_memory: dict[str, DeviceMemory] = {}
        self.host_stores: dict[str, HostStore] = {}
        self.pinned: dict[str, Container] = {}
        for node in cluster.nodes:
            self.host_memory[node.node_id] = DeviceMemory(
                env,
                node.host.device_id,
                node.host.capacity,
                record_timeline=record_timelines,
            )
            self.host_stores[node.node_id] = HostStore(
                env, node.node_id, self.host_memory[node.node_id]
            )
            self.pinned[node.node_id] = Container(
                env, capacity=PINNED_RING_BYTES, init=PINNED_RING_BYTES
            )
            for gpu in node.gpus:
                memory = DeviceMemory(
                    env,
                    gpu.device_id,
                    gpu.memory_capacity,
                    record_timeline=record_timelines,
                )
                self.device_memory[gpu.device_id] = memory
                pool = MemoryPool(env, memory, cost_model=self.cost_model)
                self.pools[gpu.device_id] = pool
                self.gpu_stores[gpu.device_id] = GpuStore(
                    env, gpu.device_id, pool
                )
                # Deploy-time pre-reservation (§4.4.1): both the
                # baselines' static pools and GROUTER's idle floor are
                # in place before the first request arrives.
                pool.prewarm(min(pool_prewarm, 0.25 * gpu.memory_capacity))

        bus = env.telemetry
        if bus is not None:
            bus.publish(PlaneInfo(t=env.now, plane=self.name))

    # -- public API ----------------------------------------------------------
    def attach_queue_oracle(self, oracle: Optional[QueueOracle]) -> None:
        """Wire the platform's pending-request index into this plane.

        Planes that never rank eviction victims simply ignore the
        oracle; GROUTER consults it when choosing what to spill.
        """
        self.queue_oracle = oracle

    def register_workflow(self, workflow: Workflow, workflow_id: str) -> None:
        """Register a workflow's functions for access control."""
        self.acl.register_workflow(workflow_id, workflow.function_names())

    def put(
        self,
        ctx: FnContext,
        size: float,
        expected_consumers: int = 1,
    ) -> Process:
        """Store *size* bytes produced by *ctx*; yields a DataRef."""
        if size <= 0:
            raise StorageError(f"put size must be positive, got {size}")
        self.metrics.puts += 1
        return self.env.process(
            self._put(ctx, float(size), expected_consumers)
        )

    def get(self, ctx: FnContext, ref: DataRef) -> Process:
        """Materialize *ref* on *ctx*'s device; yields a GetResult."""
        self.metrics.gets += 1
        if self.env.telemetry is None:
            return self.env.process(self._get(ctx, ref))
        return self.env.process(self._get_published(ctx, ref))

    def _get_published(self, ctx: FnContext, ref: DataRef):
        """Generator: run ``_get`` and publish its outcome on the bus."""
        result: GetResult = yield from self._get(ctx, ref)
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(StoreGet(
                t=self.env.now,
                object_id=ref.object_id,
                device_id=ctx.device_id,
                size=ref.size,
                category=result.category,
                latency=result.latency,
            ))
        return result

    def delete(self, ref: DataRef) -> None:
        """Explicitly drop an object (normally automatic on consumption)."""
        _node_id, obj = self.catalog.lookup(
            ref.object_id, from_node=self.cluster.nodes[0].node_id
        )
        self._destroy(obj)

    def ingress_put(
        self,
        node_id: str,
        size: float,
        workflow_id: str,
        expected_consumers: int = 1,
    ) -> DataRef:
        """Register a request payload that arrived via I/O in host memory.

        Ingress is plane-independent: input bytes always land in the
        node's host store (the gFn-host interaction of §2.2), with no
        transfer cost at registration time.
        """
        if size <= 0:
            raise StorageError(f"ingress size must be positive, got {size}")
        obj = DataObject(
            object_id=self.ids.next("data"),
            size=float(size),
            workflow_id=workflow_id,
            producer="__ingress__",
            created_at=self.env.now,
            expected_consumers=expected_consumers,
        )
        self._store_on_host(obj, node_id)
        self.catalog.register(obj, node_id)
        return obj.to_ref()

    def release_claim(self, ref: DataRef) -> None:
        """Give up one expected consumption without reading the data.

        Used when a conditional branch is not taken: the object's
        refcount drops and it is destroyed once fully released.
        """
        if ref.object_id not in self.catalog:
            return
        _node_id, obj = self.catalog.lookup(
            ref.object_id, from_node=self.cluster.nodes[0].node_id
        )
        obj.consumed_count += 1
        if obj.fully_consumed:
            self._destroy(obj)

    # -- hooks implemented by concrete planes ----------------------------------
    @abc.abstractmethod
    def _put(self, ctx: FnContext, size: float, expected_consumers: int):
        """Generator implementing Put; returns a DataRef."""

    @abc.abstractmethod
    def _get(self, ctx: FnContext, ref: DataRef):
        """Generator implementing Get; returns a GetResult."""

    # -- shared helpers ---------------------------------------------------------
    def _new_object(
        self, ctx: FnContext, size: float, expected_consumers: int
    ) -> DataObject:
        return DataObject(
            object_id=self.ids.next("data"),
            size=size,
            workflow_id=ctx.workflow_id,
            producer=ctx.function_name,
            created_at=self.env.now,
            expected_consumers=expected_consumers,
        )

    def _lookup(self, ctx: FnContext, ref: DataRef):
        """Authorize and resolve a ref; yields (node_id, object)."""
        self.acl.authorize(
            ctx.function_name, ctx.workflow_id, ref.workflow_id
        )
        node_id, obj = self.catalog.lookup(
            ref.object_id, from_node=ctx.node.node_id
        )
        self.metrics.control_ops += 1
        if node_id == ctx.node.node_id:
            yield self.env.timeout(LOOKUP_LATENCY)
        else:
            yield self.env.timeout(GLOBAL_LOOKUP_LATENCY)
        if obj.deleted:
            raise StorageError(f"{ref.object_id} was already deleted")
        obj.touch(self.env.now)
        return node_id, obj

    def _note_consumed(self, ctx: FnContext, obj: DataObject) -> None:
        """Count a consumption; destroy the object when fully consumed."""
        obj.consumed_count += 1
        if obj.fully_consumed:
            self._destroy(obj)

    def _destroy(self, obj: DataObject) -> None:
        if obj.deleted:
            return
        obj.deleted = True
        for device_id in list(obj.replicas):
            store = self.gpu_stores.get(device_id)
            if store is not None and store.has(obj.object_id):
                store.remove(obj)
                continue
            for host_store in self.host_stores.values():
                if host_store.device_id == device_id and host_store.has(
                    obj.object_id
                ):
                    host_store.remove(obj)
                    break
            else:
                obj.drop_replica(device_id)
        if obj.object_id in self.catalog:
            self.catalog.unregister(obj.object_id)

    # -- transfer helpers --------------------------------------------------------
    def _run_transfer(
        self,
        paths: list[Path],
        size: float,
        category: str,
        src: str,
        dst: str,
        copies: int = 1,
        min_rate: float = 0.0,
        slo_deadline: Optional[float] = None,
        chunked: Optional[bool] = None,
        pinned_node: Optional[str] = None,
        owner: str = "",
    ):
        """Generator: execute a transfer and record it in metrics."""
        started = self.env.now
        use_chunked = self.chunked if chunked is None else chunked
        pinned = self.pinned[pinned_node] if pinned_node is not None else None
        yield self.engine.transfer(
            paths,
            size,
            min_rate=min_rate,
            slo_deadline=slo_deadline,
            chunked=use_chunked,
            pinned_buffer=pinned,
            tag=category,
            owner=owner,
        )
        self.metrics.record(
            TransferRecord(
                category=category,
                size=size,
                started_at=started,
                finished_at=self.env.now,
                src=src,
                dst=dst,
                copies=copies,
            )
        )

    def _store_on_gpu(self, obj: DataObject, gpu_device_id: str):
        """Generator: hold obj bytes on a GPU store (pool alloc time)."""
        yield self.gpu_stores[gpu_device_id].store(obj)

    def _store_on_gpu_or_spill(
        self,
        obj: DataObject,
        gpu_device_id: str,
        policy,
        queue_oracle=None,
    ):
        """Generator: place obj on a GPU, evicting under pressure.

        Concurrent puts can race past a single capacity check, so the
        check-evict-allocate sequence retries; if the device stays full
        the object spills to host memory (forced eviction at admission,
        the Fig. 7(b) regime).  Returns the device id holding the bytes.
        """
        from repro.common.errors import AllocationError

        node = self.cluster.node_of_device(gpu_device_id)
        store = self.gpu_stores[gpu_device_id]
        for _attempt in range(3):
            yield from self._ensure_storage_capacity(
                gpu_device_id, obj.size, policy, queue_oracle
            )
            # The limit is a hard admission bound: if eviction could
            # not clear enough space (e.g. the object alone exceeds the
            # cap), the bytes go to host memory instead.
            limit = self.storage_limit(gpu_device_id)
            if store.resident_bytes + obj.size > limit + 1e-6:
                break
            try:
                yield store.store(obj)
                return gpu_device_id
            except AllocationError:
                continue
        self.metrics.admission_spills += 1
        self._store_on_host(obj, node.node_id)
        return node.host.device_id

    def _store_on_host(self, obj: DataObject, node_id: str) -> None:
        self.host_stores[node_id].store(obj)

    def _gpu_location_of(self, obj: DataObject) -> Optional[str]:
        replicas = obj.gpu_replicas()
        return replicas[0].device_id if replicas else None

    def _result(
        self, ref: DataRef, started: float, source: str, category: str
    ) -> GetResult:
        return GetResult(
            ref=ref,
            latency=self.env.now - started,
            source_device=source,
            category=category,
        )

    def _simple_gpu_to_gpu_path(self, src_gpu, dst_gpu) -> Path:
        """Single best path between two same-node GPUs: NVLink else PCIe."""
        node = self.cluster.node_of_device(src_gpu.device_id)
        book = route_book(node)
        direct = book.nvlink_direct(src_gpu.index, dst_gpu.index)
        if direct is not None:
            return direct
        return book.gpu_p2p(src_gpu.index, dst_gpu.index)

    def _direct_host_path(self, node, gpu, direction: str) -> Path:
        """The GPU's own uplink/downlink path to or from host memory."""
        book = route_book(node)
        if direction == "to_host":
            return book.gpu_to_host(gpu.index)
        return book.host_to_gpu(gpu.index)

    def _host_to_host_path(self, src_node, dst_node) -> Path:
        """Host-memory to host-memory path over each node's first NIC."""
        return self.route_book.host_to_host(src_node.node_id, dst_node.node_id)

    def _gdr_path(self, src_gpu, dst_gpu) -> Path:
        """Default single-lane GPUDirect-RDMA path between two nodes."""
        return self.route_book.gdr_path(src_gpu.device_id, dst_gpu.device_id)

    # -- storage capacity / eviction -----------------------------------------------
    def storage_limit(self, gpu_device_id: str) -> float:
        """Bytes GPU storage may occupy on this device.

        With ``storage_limit_fraction`` set the limit is that fraction
        of the memory not used by non-storage tenants (functions);
        otherwise storage may use everything left.
        """
        memory = self.device_memory[gpu_device_id]
        pool = self.pools[gpu_device_id]
        non_storage = memory.used - memory.used_by(pool.tag)
        available = memory.capacity - non_storage
        if self.storage_limit_fraction is not None:
            return self.storage_limit_fraction * available
        return available

    def _ensure_storage_capacity(
        self,
        gpu_device_id: str,
        incoming: float,
        policy,
        queue_oracle=None,
    ):
        """Generator: migrate victims to host until *incoming* bytes fit."""
        from repro.memory.eviction import EvictionCandidate

        store = self.gpu_stores[gpu_device_id]
        limit = self.storage_limit(gpu_device_id)
        projected = store.resident_bytes + incoming
        if projected <= limit:
            return
        needed = projected - limit
        candidates = []
        for obj in store.resident_objects():
            position = (
                queue_oracle.position_of(obj.object_id)
                if queue_oracle is not None
                else None
            )
            candidates.append(
                EvictionCandidate(
                    object_id=obj.object_id,
                    size=obj.size,
                    last_access=obj.last_access,
                    queue_position=position,
                )
            )
        victims = policy.select(candidates, needed)
        for victim in victims:
            obj = store.get_resident(victim.object_id)
            if obj is None:
                continue
            yield from self._migrate_to_host(gpu_device_id, obj)

    def _migrate_to_host(self, gpu_device_id: str, obj: DataObject):
        """Generator: move one object's bytes GPU -> host (forced evict)."""
        node = self.cluster.node_of_device(gpu_device_id)
        gpu = self.cluster.gpu(gpu_device_id)
        yield from self._run_transfer(
            [self._direct_host_path(node, gpu, "to_host")],
            obj.size,
            CAT_MIGRATION,
            src=gpu_device_id,
            dst=node.host.device_id,
            pinned_node=node.node_id,
        )
        # The object may have been consumed (and destroyed) while the
        # migration copy was in flight; only flip residency if it still
        # lives here.
        if obj.deleted or not self.gpu_stores[gpu_device_id].has(obj.object_id):
            return
        self.gpu_stores[gpu_device_id].remove(obj)
        self._store_on_host(obj, node.node_id)
        self._publish_evict(obj, gpu_device_id, node.host.device_id)

    def _publish_evict(
        self, obj: DataObject, src_device: str, dst_device: str
    ) -> None:
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(StoreEvict(
                t=self.env.now,
                object_id=obj.object_id,
                src_device=src_device,
                dst_device=dst_device,
                size=obj.size,
            ))

    # -- memory introspection ----------------------------------------------------
    def total_pool_reserved(self) -> float:
        return sum(pool.reserved for pool in self.pools.values())

    def total_storage_bytes(self) -> float:
        return sum(
            store.resident_bytes for store in self.gpu_stores.values()
        )
