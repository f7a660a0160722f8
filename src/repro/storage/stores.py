"""GPU-side and host-side object stores.

A :class:`GpuStore` keeps object bytes in a per-GPU memory pool; a
:class:`HostStore` keeps them in a node's host DRAM.  Both only do
*accounting and residency* — moving the bytes between devices is the
data plane's job (it owns paths and the transfer engine).
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import StorageError
from repro.memory.device import DeviceMemory
from repro.memory.pool import MemoryPool, PoolAllocation
from repro.sim.core import Environment, Process
from repro.storage.objects import DataObject, Placement, Replica
from repro.telemetry.events import StorePut

HOST_STORE_TAG = "host-store"


class GpuStore:
    """Object residency on one GPU, backed by a memory pool."""

    def __init__(
        self,
        env: Environment,
        device_id: str,
        pool: MemoryPool,
    ) -> None:
        self.env = env
        self.device_id = device_id
        self.pool = pool
        self._resident: dict[str, DataObject] = {}

    # -- residency ----------------------------------------------------------
    def store(self, obj: DataObject) -> Process:
        """Hold *obj* bytes on this GPU; yields once memory is placed."""
        if obj.object_id in self._resident:
            raise StorageError(
                f"{obj.object_id} already resident on {self.device_id}"
            )
        return self.env.process(self._store(obj))

    def _store(self, obj: DataObject):
        allocation: PoolAllocation = yield self.pool.alloc(obj.size)
        obj.add_replica(
            Replica(
                device_id=self.device_id,
                placement=Placement.GPU,
                handle=allocation,
            )
        )
        self._resident[obj.object_id] = obj
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(StorePut(
                self.env.now, obj.object_id, self.device_id, obj.size, "gpu",
            ))
        return obj

    def remove(self, obj: DataObject) -> None:
        """Drop *obj*'s replica here and free its pool allocation."""
        if obj.object_id not in self._resident:
            raise StorageError(
                f"{obj.object_id} is not resident on {self.device_id}"
            )
        replica = obj.drop_replica(self.device_id)
        if isinstance(replica.handle, PoolAllocation):
            self.pool.free(replica.handle)
        del self._resident[obj.object_id]

    # -- queries -------------------------------------------------------------
    def has(self, object_id: str) -> bool:
        return object_id in self._resident

    def get_resident(self, object_id: str) -> Optional[DataObject]:
        return self._resident.get(object_id)

    def resident_objects(self) -> list[DataObject]:
        return list(self._resident.values())

    @property
    def resident_bytes(self) -> float:
        return sum(obj.size for obj in self._resident.values())

    def __repr__(self) -> str:
        return (
            f"<GpuStore {self.device_id} {len(self._resident)} objects "
            f"{self.resident_bytes:.0f}B>"
        )


class HostStore:
    """Object residency in a node's host DRAM."""

    def __init__(
        self, env: Environment, node_id: str, host_memory: DeviceMemory
    ) -> None:
        self.env = env
        self.node_id = node_id
        self.host_memory = host_memory
        self._resident: dict[str, DataObject] = {}

    @property
    def device_id(self) -> str:
        return self.host_memory.device_id

    def store(self, obj: DataObject) -> None:
        """Hold *obj* bytes in host memory (accounting is immediate)."""
        if obj.object_id in self._resident:
            raise StorageError(
                f"{obj.object_id} already resident on {self.device_id}"
            )
        self.host_memory.reserve(HOST_STORE_TAG, obj.size)
        obj.add_replica(
            Replica(device_id=self.device_id, placement=Placement.HOST)
        )
        self._resident[obj.object_id] = obj
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(StorePut(
                self.env.now, obj.object_id, self.device_id, obj.size, "host",
            ))

    def remove(self, obj: DataObject) -> None:
        if obj.object_id not in self._resident:
            raise StorageError(
                f"{obj.object_id} is not resident on {self.device_id}"
            )
        obj.drop_replica(self.device_id)
        self.host_memory.release(HOST_STORE_TAG, obj.size)
        del self._resident[obj.object_id]

    def has(self, object_id: str) -> bool:
        return object_id in self._resident

    def resident_objects(self) -> list[DataObject]:
        return list(self._resident.values())

    @property
    def resident_bytes(self) -> float:
        return sum(obj.size for obj in self._resident.values())
