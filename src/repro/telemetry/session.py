"""Telemetry sessions: turn telemetry on for one env or a whole block.

Two entry points:

- :func:`TelemetrySession.attach` wires one existing
  :class:`~repro.sim.Environment` with a bus, event capture, and
  standard metrics.
- :func:`capture` is a context manager that installs an
  ``Environment`` creation hook so **every** environment built inside
  the block (experiments construct a fresh one per measurement) is
  attached to the same session::

      with capture() as session:
          tables = fig13.run_pattern("intra")
      session.export_chrome_trace("trace.json")
      print(session.metrics.summary())

A session can run in two capture modes:

- **buffered** (default): every event lands in ``session.events`` —
  the original in-memory recorder path, fine for thousands of
  requests.
- **streaming**: pass ``sinks=[...]``
  (:class:`~repro.telemetry.sinks.StreamingSink` instances) and events
  are spooled to disk incrementally instead of accumulating in RAM;
  combine with ``metrics_mode="bounded"`` for a memory footprint that
  is flat in event count.  ``keep_events`` overrides the default
  (buffered keeps, streaming drops) when both are wanted::

      sinks = [JsonlEventSink("events.jsonl")]
      with capture(sinks=sinks, metrics_mode="bounded") as session:
          run_the_million_request_trace()
      # sinks flushed+closed on block exit, even on a crash.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Sequence

from repro.common.errors import ConfigError
from repro.sim.core import Environment
from repro.telemetry.bus import EventBus
from repro.telemetry.chrome import export_chrome_trace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import StandardMetrics
from repro.telemetry.sinks import StreamingSink


class TelemetrySession:
    """Shared sink for one or more instrumented simulation runs."""

    def __init__(
        self,
        sinks: Optional[Sequence[StreamingSink]] = None,
        keep_events: Optional[bool] = None,
        metrics_mode: str = "exact",
    ) -> None:
        self.metrics = MetricsRegistry(mode=metrics_mode)
        self.sinks: list[StreamingSink] = list(sinks) if sinks else []
        # Streaming sessions drop the in-memory event list by default;
        # buffered sessions keep it (the pre-streaming behaviour).
        self.keep_events = (
            keep_events if keep_events is not None else not self.sinks
        )
        self.events: list[tuple[int, object]] = []
        self.run_count = 0
        self.events_seen = 0

    def attach(self, env: Environment) -> EventBus:
        """Instrument *env*: bus + event capture + standard metrics."""
        run = self.run_count
        self.run_count += 1
        bus = EventBus()
        env.telemetry = bus

        keep = self.keep_events
        sinks = self.sinks

        def _capture(event, _run=run):
            self.events_seen += 1
            if keep:
                self.events.append((_run, event))
            for sink in sinks:
                sink.handle(_run, event)

        bus.subscribe(None, _capture)
        StandardMetrics(self.metrics).attach(bus)
        return bus

    # -- streaming lifecycle -------------------------------------------------
    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        """Flush and finalize every sink (idempotent)."""
        for sink in self.sinks:
            sink.close()

    def export_chrome_trace(self, path: Optional[str] = None) -> dict:
        """Write/return the session as a Chrome ``trace_event`` doc."""
        if not self.keep_events and self.events_seen:
            raise ConfigError(
                "session streamed its events to sinks (keep_events=False); "
                "use a ChromeStreamingSink for the trace, or pass "
                "keep_events=True"
            )
        return export_chrome_trace(
            self.events, path=path, multi_run=self.run_count > 1
        )

    def __len__(self) -> int:
        return len(self.events)


@contextlib.contextmanager
def capture(
    session: Optional[TelemetrySession] = None,
    sinks: Optional[Sequence[StreamingSink]] = None,
    keep_events: Optional[bool] = None,
    metrics_mode: str = "exact",
) -> Iterator[TelemetrySession]:
    """Attach every Environment created in this block to one session.

    When *session* is omitted, one is constructed from the remaining
    arguments and its sinks are **closed** (flushed + finalized) when
    the block exits — normally or by exception — which is the crash-
    safe finalization contract for spooled telemetry.  A caller-
    provided session is only flushed, since its sinks may outlive the
    block.
    """
    own_session = session is None
    if own_session:
        session = TelemetrySession(
            sinks=sinks, keep_events=keep_events, metrics_mode=metrics_mode
        )
    elif sinks is not None or keep_events is not None:
        raise ConfigError(
            "pass sinks/keep_events either to the session or to capture(), "
            "not both"
        )
    previous = Environment.telemetry_hook
    Environment.telemetry_hook = session.attach
    try:
        yield session
    finally:
        Environment.telemetry_hook = previous
        if own_session:
            session.close()
        else:
            session.flush()
