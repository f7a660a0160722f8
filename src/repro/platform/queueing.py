"""Request and stage queues for the platform's lifecycle pipeline.

Two structures live here:

:class:`PendingQueue`
    The arrival-ordered set of in-flight requests that backs GROUTER's
    queue-aware eviction oracle (§4.4.2): an insertion-ordered dict from
    each pending request to the object ids bound to it.  ``enqueue``,
    ``finish`` and ``bind_object`` are O(1) dict operations (``finish``
    also drops the request's bindings), and ``position_of`` scans the
    pending requests, which the experiments that query it keep to a few
    dozen.

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


class PendingQueue:
    """Arrival-ordered pending requests and the objects bound to them."""

    def __init__(self) -> None:
        # Pending request id -> object ids bound to it, in arrival order.
        self._pending: dict[str, list[str]] = {}
        # Object id -> the pending request it was last bound to.
        self._object_request: dict[str, str] = {}
        # Operation counters; perfbench's traced run reports their sum
        # per request as platform.queue_ops_per_req.
        self.counters = {"enqueue": 0, "finish": 0, "bind": 0, "position": 0}

    def enqueue(self, request_id: str) -> None:
        self.counters["enqueue"] += 1
        self._pending[request_id] = []

    def finish(self, request_id: str) -> None:
        """Drop a request and every object binding it accumulated."""
        self.counters["finish"] += 1
        for object_id in self._pending.pop(request_id, ()):
            if self._object_request.get(object_id) == request_id:
                del self._object_request[object_id]

    def bind_object(self, object_id: str, request_id: str) -> None:
        """Bind an object to a pending request; the last binding wins."""
        self.counters["bind"] += 1
        self._pending[request_id].append(object_id)
        self._object_request[object_id] = request_id

    def position_of(self, object_id: str) -> Optional[int]:
        """Queue index of the object's pending consumer, or ``None``."""
        self.counters["position"] += 1
        request_id = self._object_request.get(object_id)
        if request_id is None:
            return None
        return list(self._pending).index(request_id)

    @property
    def depth(self) -> int:
        return len(self._pending)

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
