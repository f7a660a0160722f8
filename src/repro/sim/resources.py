"""Shared-resource primitives built on the simulation kernel.

``Resource``
    Counting semaphore with FIFO queueing.  GPUs are modelled as
    capacity-1 resources, matching the paper's time-multiplexed GPU
    sharing (footnote in §4.3.2).

``Container``
    A continuous-level tank with blocking ``get``; used for pinned
    buffer pools and other byte-counted capacities.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.common.errors import SimulationError
from repro.sim.core import Environment, Event


class Request(Event):
    """The event returned by :meth:`Resource.request`.

    Fires when the resource grants a slot.  Must be released via
    :meth:`Resource.release`.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """Counting semaphore granting slots in request (FIFO) order."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use: int = 0
        self._waiting: deque[Request] = deque()

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        req = Request(self)
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return the slot held by *request*; grants the oldest waiter."""
        if request.resource is not self:
            raise SimulationError("release() of a foreign request")
        self._in_use -= 1
        if self._in_use < 0:
            raise SimulationError("release() without a matching request")
        while self._waiting and self._in_use < self.capacity:
            self._in_use += 1
            self._waiting.popleft().succeed()


class Container:
    """A continuous-level tank (e.g. bytes of pinned buffer).

    ``get`` blocks until the requested amount is available; ``put``
    never blocks (unbounded or bounded by *capacity*).
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if init < 0 or init > capacity:
            raise SimulationError(f"invalid initial level {init}")
        self.env = env
        self.capacity = capacity
        self._level = init
        self._seq = 0
        self._waiting: list[tuple[int, float, Event]] = []
        # Called (with this container) when a get() cannot be served
        # immediately.  Lazy holders — the transfer engine's coalesced
        # macro-flows keep pinned bytes virtually — use it to
        # materialize or release their claim before FIFO service runs,
        # so blocking behaviour matches the eager world exactly.
        self.on_blocked: Optional[Callable[["Container"], None]] = None

    @property
    def level(self) -> float:
        """Currently available amount."""
        return self._level

    @property
    def queue_len(self) -> int:
        """Number of get() requests waiting for service."""
        return len(self._waiting)

    def put(self, amount: float) -> None:
        """Add *amount*; clamps at capacity; wakes eligible getters."""
        if amount < 0:
            raise SimulationError(f"negative put amount {amount}")
        self._level = min(self.capacity, self._level + amount)
        self._serve()

    def get(self, amount: float) -> Event:
        """Return an event that fires once *amount* can be withdrawn."""
        if amount < 0:
            raise SimulationError(f"negative get amount {amount}")
        if amount > self.capacity:
            raise SimulationError(
                f"get({amount}) exceeds container capacity {self.capacity}"
            )
        event = self.env.event()
        self._waiting.append((self._seq, amount, event))
        self._seq += 1
        if (
            self.on_blocked is not None
            and self._waiting[0][1] > self._level
        ):
            # The head-of-line request (possibly this one) would block:
            # give lazy holders a chance to reconcile their claims
            # (their put()s re-enter _serve) before we settle service.
            self.on_blocked(self)
        self._serve()
        return event

    def _serve(self) -> None:
        # FIFO service discipline: head-of-line blocking is intentional,
        # it keeps large requests from starving.
        while self._waiting:
            _seq, amount, event = self._waiting[0]
            if amount > self._level:
                break
            self._waiting.pop(0)
            self._level -= amount
            event.succeed(amount)
