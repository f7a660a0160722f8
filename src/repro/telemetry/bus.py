"""The telemetry event bus.

A bus is attached to a simulation :class:`~repro.sim.Environment` as
``env.telemetry`` (``None`` by default).  Publishers across the stack
follow the zero-overhead-when-disabled pattern::

    bus = self.env.telemetry
    if bus is not None:
        bus.publish(FlowStarted(...))

so a disabled run pays one attribute load and an ``is None`` test per
potential event — events are never even constructed.

Subscribers register for a concrete event type (exact class match, no
subclass dispatch — event types are flat) or for every event with
``subscribe(None, cb)``.
"""

from __future__ import annotations

from typing import Callable, Optional, Type

from repro.telemetry.events import TelemetryEvent

Callback = Callable[[TelemetryEvent], None]


class EventBus:
    """Synchronous publish/subscribe fan-out of telemetry events."""

    def __init__(self) -> None:
        # Callback tuples are replaced, never mutated, so ``publish``
        # iterates them directly (see its docstring).
        self._by_type: dict[Type[TelemetryEvent], tuple[Callback, ...]] = {}
        self._all: tuple[Callback, ...] = ()
        self.published = 0

    def subscribe(
        self,
        event_type: Optional[Type[TelemetryEvent]],
        callback: Callback,
    ) -> Callback:
        """Register *callback* for *event_type* (``None`` = every event)."""
        if event_type is None:
            self._all += (callback,)
        else:
            self._by_type[event_type] = (
                self._by_type.get(event_type, ()) + (callback,)
            )
        return callback

    def unsubscribe(
        self,
        event_type: Optional[Type[TelemetryEvent]],
        callback: Callback,
    ) -> None:
        """Remove one registration of *callback* (no-op if absent)."""
        listeners = (
            self._all if event_type is None else self._by_type.get(event_type, ())
        )
        try:
            index = listeners.index(callback)
        except ValueError:
            return
        remaining = listeners[:index] + listeners[index + 1:]
        if event_type is None:
            self._all = remaining
        else:
            self._by_type[event_type] = remaining

    def publish(self, event: TelemetryEvent) -> None:
        """Deliver *event* synchronously to every matching subscriber.

        ``subscribe`` and ``unsubscribe`` replace the callback tuples
        instead of mutating them, so delivery runs over the tuples as
        they were when it began: a subscriber may ``unsubscribe``
        (itself or another callback) or ``subscribe`` during delivery
        without corrupting the fan-out.  A callback removed mid-publish
        still receives the in-flight event; one added mid-publish first
        sees the next event.
        """
        self.published += 1
        for callback in self._by_type.get(type(event), ()):
            callback(event)
        for callback in self._all:
            callback(event)

    @property
    def subscriber_count(self) -> int:
        return len(self._all) + sum(
            len(cbs) for cbs in self._by_type.values()
        )
