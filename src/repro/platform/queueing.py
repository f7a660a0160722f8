"""Request and stage queues for the platform's lifecycle pipeline.

Two structures live here:

:class:`PendingQueue`
    The arrival-ordered set of in-flight requests that backs GROUTER's
    queue-aware eviction oracle (§4.4.2).  The seed implementation kept
    a plain list, making ``finish`` (``list.remove``) and
    ``position_of`` (``list.index``) O(n) per call and leaking one
    object binding per Put forever.  This version keeps a Fenwick tree
    over arrival slots: ``enqueue``/``finish`` are O(log n) tree
    updates with O(1) dict bookkeeping, ``position_of`` is one O(log n)
    prefix count, object bindings are dropped the moment their request
    finishes, and dead slots are compacted away once they outnumber the
    live ones — nothing on the pending path scans a list.

:class:`StageQueue`
    A per-stage depth counter.  Stage queues are unbounded, so
    entering is a pure O(1) counter bump with zero simulation
    interaction; every change of depth is published as a
    :class:`~repro.telemetry.events.StageQueueDepth` sample.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import SchedulingError
from repro.sim.core import Environment
from repro.telemetry.events import StageQueueDepth

_MIN_SLOTS = 64


class PendingQueue:
    """Arrival-ordered pending requests with O(log n) indexed lookups."""

    def __init__(self) -> None:
        self._capacity = _MIN_SLOTS
        self._tree = [0] * (self._capacity + 1)
        self._base = 0  # arrival seq mapped to tree slot 0
        self._next_seq = 0
        self._seq: dict[str, int] = {}  # request_id -> arrival seq (alive)
        self._count = 0
        self._dead_slots = 0
        self._object_request: dict[str, str] = {}
        self._request_objects: dict[str, list[str]] = {}
        # Operation counters; perfbench's traced run reports their sum
        # per request as platform.queue_ops_per_req.
        self.counters = {
            "enqueue": 0,
            "finish": 0,
            "bind": 0,
            "position": 0,
            "compactions": 0,
        }

    # -- Fenwick primitives (0-based slot index) ------------------------------
    def _add(self, slot: int, delta: int) -> None:
        i = slot + 1
        while i <= self._capacity:
            self._tree[i] += delta
            i += i & -i

    def _prefix(self, slot: int) -> int:
        """Count of alive entries in slots [0..slot]."""
        i = slot + 1
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & -i
        return total

    def _rebuild(self) -> None:
        """Re-pack alive entries into a fresh tree, dropping dead slots.

        ``self._seq`` iterates in insertion (= arrival) order, so the
        re-assigned slots preserve queue positions exactly.
        """
        alive = list(self._seq.items())
        self._capacity = max(_MIN_SLOTS, 2 * len(alive))
        self._tree = [0] * (self._capacity + 1)
        self._base = self._next_seq
        for request_id, _old_seq in alive:
            seq = self._next_seq
            self._next_seq += 1
            self._seq[request_id] = seq
            self._add(seq - self._base, 1)
        self._dead_slots = 0
        self.counters["compactions"] += 1

    # -- pending-request path -------------------------------------------------
    def enqueue(self, request_id: str) -> None:
        self.counters["enqueue"] += 1
        if self._next_seq - self._base >= self._capacity:
            self._rebuild()
        seq = self._next_seq
        self._next_seq += 1
        self._seq[request_id] = seq
        self._add(seq - self._base, 1)
        self._count += 1

    def finish(self, request_id: str) -> None:
        """Drop a request and every object binding it accumulated."""
        self.counters["finish"] += 1
        seq = self._seq.pop(request_id, None)
        if seq is None:
            return
        self._add(seq - self._base, -1)
        self._count -= 1
        self._dead_slots += 1
        for object_id in self._request_objects.pop(request_id, ()):
            if self._object_request.get(object_id) == request_id:
                del self._object_request[object_id]
        if self._dead_slots > max(_MIN_SLOTS, 2 * self._count):
            self._rebuild()

    def bind_object(self, object_id: str, request_id: str) -> None:
        self.counters["bind"] += 1
        self._object_request[object_id] = request_id
        self._request_objects.setdefault(request_id, []).append(object_id)

    def position_of(self, object_id: str) -> Optional[int]:
        """Queue index of the object's pending consumer, or ``None``."""
        self.counters["position"] += 1
        request_id = self._object_request.get(object_id)
        if request_id is None:
            return None
        seq = self._seq.get(request_id)
        if seq is None:
            return None
        return self._prefix(seq - self._base) - 1

    @property
    def depth(self) -> int:
        return self._count

    @property
    def bound_objects(self) -> int:
        """Live object->request bindings (0 once every request drains)."""
        return len(self._object_request)


class StageQueue:
    """Depth counter in front of one stage's replicas."""

    def __init__(self, env: Environment, stage: str) -> None:
        self.env = env
        self.stage = stage
        self._depth = 0

    def _publish_depth(self) -> None:
        """Sample the queue's occupancy onto the bus (counter track)."""
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(StageQueueDepth(
                self.env.now, self.stage, self._depth,
            ))

    def enter(self) -> None:
        """Count one request into the stage; pair it with :meth:`leave`."""
        self._depth += 1
        self._publish_depth()

    def leave(self) -> None:
        """Count one request out of the stage."""
        if self._depth <= 0:
            raise SchedulingError(f"leave() without enter() on {self.stage}")
        self._depth -= 1
        self._publish_depth()

    @property
    def depth(self) -> int:
        """Requests currently inside the stage (waiting + executing)."""
        return self._depth
