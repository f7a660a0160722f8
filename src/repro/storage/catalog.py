"""Hierarchical data catalog (paper §4.2.2 and §7).

Object-id to location mappings are kept in two tiers: each node owns a
*local* table for objects resident on that node, and a centralized
scheduler holds the *global* table.  Lookups try the local table first
and fall back to the global one only on a miss — the hit/miss counters
feed the CPU-overhead experiment (Fig. 20(b)).

Access control follows the paper's threat model: every access is
authenticated by (function id, workflow id); only functions registered
for an object's workflow may read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import AccessDeniedError, StorageError
from repro.storage.objects import DataObject


@dataclass
class CatalogStats:
    """Lookup accounting used for control-plane overhead estimates."""

    local_hits: int = 0
    global_lookups: int = 0
    registrations: int = 0
    evictions: int = 0


class DataCatalog:
    """Two-tier (per-node local + global) object location catalog."""

    def __init__(self, node_ids: list[str]) -> None:
        self._local: dict[str, dict[str, DataObject]] = {
            node_id: {} for node_id in node_ids
        }
        self._global: dict[str, str] = {}  # object_id -> node_id
        self.stats = CatalogStats()

    def register(self, obj: DataObject, node_id: str) -> None:
        """Record a new object resident on *node_id*."""
        if node_id not in self._local:
            raise StorageError(f"unknown node {node_id}")
        if obj.object_id in self._global:
            raise StorageError(f"duplicate object id {obj.object_id}")
        self._local[node_id][obj.object_id] = obj
        self._global[obj.object_id] = node_id
        self.stats.registrations += 1

    def move(self, object_id: str, to_node: str) -> None:
        """Update the catalog after a cross-node migration."""
        from_node = self._global.get(object_id)
        if from_node is None:
            raise StorageError(f"unknown object {object_id}")
        obj = self._local[from_node].pop(object_id)
        self._local[to_node][object_id] = obj
        self._global[object_id] = to_node

    def lookup(self, object_id: str, from_node: str) -> tuple[str, DataObject]:
        """Resolve an object id to (node_id, object), local-table first."""
        local = self._local.get(from_node, {})
        obj = local.get(object_id)
        if obj is not None:
            self.stats.local_hits += 1
            return from_node, obj
        self.stats.global_lookups += 1
        node_id = self._global.get(object_id)
        if node_id is None:
            raise StorageError(f"unknown object {object_id}")
        return node_id, self._local[node_id][object_id]

    def unregister(self, object_id: str) -> DataObject:
        """Remove an object entirely (after deletion)."""
        node_id = self._global.pop(object_id, None)
        if node_id is None:
            raise StorageError(f"unknown object {object_id}")
        obj = self._local[node_id].pop(object_id)
        self.stats.evictions += 1
        return obj

    def objects_on(self, node_id: str) -> list[DataObject]:
        return list(self._local.get(node_id, {}).values())

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._global

    def __len__(self) -> int:
        return len(self._global)


@dataclass
class AccessController:
    """(function id, workflow id) authentication for object access."""

    # workflow_id -> set of function names allowed to touch its data.
    _workflow_members: dict[str, set[str]] = field(default_factory=dict)
    denied_count: int = 0
    checked_count: int = 0

    def register_workflow(self, workflow_id: str, function_names: list[str]) -> None:
        members = self._workflow_members.setdefault(workflow_id, set())
        members.update(function_names)

    def authorize(
        self, function_name: str, workflow_id: str, object_workflow_id: str
    ) -> None:
        """Raise :class:`AccessDeniedError` unless the access is allowed."""
        self.checked_count += 1
        members = self._workflow_members.get(object_workflow_id)
        allowed = (
            workflow_id == object_workflow_id
            and members is not None
            and function_name in members
        )
        if not allowed:
            self.denied_count += 1
            raise AccessDeniedError(
                f"function {function_name!r} (workflow {workflow_id!r}) may "
                f"not access data of workflow {object_workflow_id!r}"
            )
