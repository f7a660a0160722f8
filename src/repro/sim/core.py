"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based engine in the style of SimPy:
processes are Python generators that ``yield`` events; the environment
resumes a process when the event it waits on fires.

Determinism rules:

* Events scheduled for the same time fire in scheduling order (a
  monotonic sequence number breaks ties).
* No wall-clock or randomness lives in the kernel; stochastic behaviour
  belongs to callers who hold seeded RNGs.

Example
-------
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(1.0)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[1.0]
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError

# Sentinel distinguishing "no value yet" from a real ``None`` value.
_PENDING = object()


class ScheduledCall:
    """Cancellable handle for a callable queued via :meth:`Environment.schedule`.

    Cancelling marks the heap entry dead instead of removing it (heap
    deletion is O(n)); the environment counts dead entries and compacts
    the heap when they outnumber the live ones, so long flow-churn runs
    do not accumulate unbounded cancelled-timer garbage.
    """

    __slots__ = ("_env", "call", "cancelled", "when")

    def __init__(self, env: "Environment", call: Callable[[], None]) -> None:
        self._env = env
        self.call: Optional[Callable[[], None]] = call
        self.cancelled = False
        # Absolute fire instant, stamped by schedule()/schedule_at().
        # Timer owners (the network's macro-flow timer) read this to
        # elide a re-arm at the instant already armed.
        self.when = 0.0

    def cancel(self) -> None:
        """Prevent the call from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        self.call = None  # release the closure immediately
        self._env._note_stale()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is
    called (its value is then fixed); it is *processed* once its
    callbacks have run at the scheduled simulation time.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_processed",
        "_defused",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        # Set when a failure was delivered to at least one waiter (or
        # explicitly defused); undelivered failures raise at run() time.
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has a value (succeeded or failed)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._post(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._post(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so run() will not re-raise."""
        self._defused = True

    # -- waiting -----------------------------------------------------------
    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Attach *callback*; fires even if the event already processed."""
        if self._processed:
            self.env._schedule_call(lambda: callback(self))
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self._ok = True
        self._value = value if value is not None else delay
        env._post(self, delay=delay)


class AllOf(Event):
    """Fires when all of *events* have fired (with a dict of values)."""

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done: dict[Event, Any] = {}
        if not self._events:
            self.succeed(self._done)
            return
        for event in self._events:
            event.subscribe(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if not event.ok:
                event.defuse()
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._done[event] = event.value
        if len(self._done) == len(self._events):
            self.succeed(self._done)


class Process(Event):
    """Wraps a generator; the process event fires when the generator ends.

    The generator may ``yield`` any :class:`Event`; it resumes with the
    event's value (or the exception is thrown into it on failure).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not isinstance(generator, Generator):
            raise SimulationError(
                f"process() needs a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self._generator = generator
        # Bootstrap: start the generator at the current time.
        env._schedule_call(lambda: self._resume(None, None))

    # -- internals --------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # generator crashed
            self.fail(error)
            return
        if not isinstance(target, Event):
            self._resume(None, SimulationError(f"yielded non-event {target!r}"))
            return
        self._wait_for(target)

    def _wait_for(self, event: Event) -> None:
        def _on_event(evt: Event) -> None:
            if evt._ok:
                self._resume(evt.value, None)
            else:
                evt.defuse()
                self._resume(None, evt.value)

        event.subscribe(_on_event)


class Environment:
    """The simulation environment: clock, event queue, process factory.

    ``telemetry`` is the environment's event bus attachment point
    (see :mod:`repro.telemetry`): ``None`` by default, so publishers
    across the stack pay a single attribute check when telemetry is
    off.  Setting the class attribute ``telemetry_hook`` (done by
    ``repro.telemetry.capture()``) instruments every subsequently
    created environment.
    """

    # Called with each new environment when set (telemetry capture).
    telemetry_hook: Optional[Callable[["Environment"], Any]] = None

    # Compaction never triggers below this many dead entries: tiny
    # queues are cheaper to drain than to rebuild.
    _COMPACT_MIN_STALE = 8

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, object]] = []
        self._seq = 0
        self._stale = 0
        self.compactions = 0
        self.telemetry = None
        hook = Environment.telemetry_hook
        if hook is not None:
            hook(self)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after *delay* seconds."""
        return Timeout(self, delay, value)

    def timeout_until(self, time: float, value: Any = None) -> Event:
        """Create an event that fires at the absolute instant *time*.

        Unlike ``timeout(time - now)``, the fire time is *time* itself,
        not ``now + (time - now)`` — the two differ by an ulp whenever
        the subtraction rounds, which matters to consumers that replay
        exact event-time arithmetic (the transfer engine's macro-flow
        splits re-arm batch schedules this way).
        """
        if time < self._now:
            raise SimulationError(
                f"timeout_until({time}) is in the past (now={self._now})"
            )
        event = Event(self)
        event._ok = True
        event._value = value if value is not None else time
        heapq.heappush(self._queue, (time, self._seq, event))
        self._seq += 1
        return event

    def process(self, generator: Generator) -> Process:
        """Start *generator* as a process; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: list[Event]) -> AllOf:
        """Event that fires when all of *events* have fired."""
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _post(self, event: Event, delay: float = 0.0) -> None:
        """Queue *event*'s callbacks to run after *delay*."""
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    def _schedule_call(self, call: Callable[[], None], delay: float = 0.0) -> None:
        """Queue a bare callable (used for process bootstrap/resume)."""
        heapq.heappush(self._queue, (self._now + delay, self._seq, call))
        self._seq += 1

    def schedule(self, delay: float, call: Callable[[], None]) -> ScheduledCall:
        """Public hook: run *call* after *delay* seconds.

        Returns a :class:`ScheduledCall` handle whose ``cancel()``
        prevents the call from running.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        handle = ScheduledCall(self, call)
        handle.when = self._now + delay
        heapq.heappush(self._queue, (handle.when, self._seq, handle))
        self._seq += 1
        return handle

    def schedule_at(self, time: float, call: Callable[[], None]) -> ScheduledCall:
        """Like :meth:`schedule`, but at the absolute instant *time*.

        Exact-time arming for callers that replay event-time arithmetic
        (see :meth:`timeout_until` for why ``schedule(time - now)`` is
        not equivalent at the ulp level).
        """
        if time < self._now:
            raise SimulationError(f"time {time} is in the past (now={self._now})")
        handle = ScheduledCall(self, call)
        handle.when = time
        heapq.heappush(self._queue, (time, self._seq, handle))
        self._seq += 1
        return handle

    # -- heap hygiene --------------------------------------------------------
    @property
    def queue_size(self) -> int:
        """Entries currently on the heap (including dead ones)."""
        return len(self._queue)

    @property
    def stale_entries(self) -> int:
        """Cancelled-but-still-queued entries awaiting pop or compaction."""
        return self._stale

    def _note_stale(self) -> None:
        self._stale += 1
        if (
            self._stale >= self._COMPACT_MIN_STALE
            and self._stale > len(self._queue) // 2
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant."""
        self._queue = [
            entry
            for entry in self._queue
            if not (isinstance(entry[2], ScheduledCall) and entry[2].cancelled)
        ]
        heapq.heapify(self._queue)
        self._stale = 0
        self.compactions += 1

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Process the next queue entry, advancing the clock."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        time, _seq, entry = heapq.heappop(self._queue)
        if time < self._now:
            raise SimulationError("event scheduled in the past")
        if isinstance(entry, ScheduledCall) and entry.cancelled:
            # A cancelled call is a non-event: drop the stale entry
            # without advancing the clock, so the post-run ``now``
            # reflects the last *live* event regardless of what
            # garbage each allocator's arming pattern left behind.
            self._stale -= 1
            return
        self._now = time
        if isinstance(entry, Event):
            entry._processed = True
            callbacks, entry.callbacks = entry.callbacks, []
            for callback in callbacks:
                callback(entry)
            if entry._ok is False and not entry._defused:
                exc = entry._value
                if isinstance(exc, BaseException):
                    raise exc
                raise SimulationError(str(exc))
        elif isinstance(entry, ScheduledCall):
            entry.call()
        else:
            entry()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches *until*.

        When *until* is given the clock is advanced to exactly *until*
        even if the queue drains earlier.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        while self._queue:
            next_time = self._queue[0][0]
            if until is not None and next_time > until:
                break
            self.step()
        if until is not None:
            self._now = max(self._now, until)
