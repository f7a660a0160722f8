"""Data objects and references.

A ``Put()`` creates a :class:`DataObject` — intermediate data held by a
store — and returns a :class:`DataRef`, the globally-unique identifier
passed to downstream functions (paper §4.2.1).  Objects may have
replicas on several devices (e.g. after migration to host memory with a
copy retained, or staged copies on other GPUs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import StorageError


class Placement(enum.Enum):
    """Where a replica lives."""

    GPU = "gpu"
    HOST = "host"


@dataclass
class Replica:
    """One copy of an object's bytes on a specific device."""

    device_id: str
    placement: Placement
    # Opaque handle for the backing allocation (pool allocation for GPU
    # replicas, None for host replicas — host DRAM is just accounted).
    handle: object = None


@dataclass(frozen=True)
class DataRef:
    """The token functions exchange instead of raw bytes.

    Refs are created by ``Put()`` and resolved by ``Get()``; they carry
    the ids needed for access control (function + workflow, §7).
    """

    object_id: str
    size: float
    workflow_id: str
    producer: str

    def __str__(self) -> str:
        return self.object_id


@dataclass
class DataObject:
    """Intermediate data tracked by the storage layer."""

    object_id: str
    size: float
    workflow_id: str
    producer: str
    created_at: float
    expected_consumers: int = 1
    consumed_count: int = 0
    last_access: float = field(default=0.0)
    replicas: dict[str, Replica] = field(default_factory=dict)
    deleted: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise StorageError(f"{self.object_id}: size must be positive")
        self.last_access = self.created_at

    # -- replica management -------------------------------------------------
    def add_replica(self, replica: Replica) -> None:
        if replica.device_id in self.replicas:
            raise StorageError(
                f"{self.object_id}: duplicate replica on {replica.device_id}"
            )
        self.replicas[replica.device_id] = replica

    def drop_replica(self, device_id: str) -> Replica:
        try:
            return self.replicas.pop(device_id)
        except KeyError:
            raise StorageError(
                f"{self.object_id}: no replica on {device_id}"
            ) from None

    def replica_on(self, device_id: str) -> Optional[Replica]:
        return self.replicas.get(device_id)

    def gpu_replicas(self) -> list[Replica]:
        return [
            r for r in self.replicas.values() if r.placement is Placement.GPU
        ]

    def host_replicas(self) -> list[Replica]:
        return [
            r for r in self.replicas.values() if r.placement is Placement.HOST
        ]

    @property
    def fully_consumed(self) -> bool:
        return self.consumed_count >= self.expected_consumers

    def to_ref(self) -> DataRef:
        return DataRef(
            object_id=self.object_id,
            size=self.size,
            workflow_id=self.workflow_id,
            producer=self.producer,
        )

    def touch(self, now: float) -> None:
        self.last_access = now
