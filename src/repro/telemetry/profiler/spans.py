"""Causal span trees: one tree of typed spans per request.

The :class:`SpanTreeBuilder` subscribes to a telemetry bus (or is fed a
recorded event stream after the fact) and assembles, per request id,
every timed region the platform published for it: queue waits, cold
starts, stage compute, per-edge data transfers, pool-allocation delays,
and the final egress drain.  Flows are kept with their full bandwidth
history (one rate per :class:`~repro.telemetry.events.FlowsReallocated`
epoch, the first one carried by a lone start's ``FlowStarted``) so the
contention attributor can integrate shortfall over time.

Builders are pure accumulators: they never touch the simulation, so
they can be attached live (zero extra events) or replayed offline from
a session's event list.  :func:`gantt` renders one request's tree as
an ASCII Gantt chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.telemetry.bus import EventBus
from repro.telemetry.events import (
    FlowFinished,
    FlowsReallocated,
    FlowStarted,
    PlaneInfo,
    PoolAlloc,
    RequestArrived,
    RequestFinished,
    StageSpan,
    TelemetryEvent,
    TransferFinished,
    TransferStarted,
)


@dataclass(frozen=True)
class Span:
    """One timed region of a request (``kind`` as in StageSpan)."""

    kind: str
    start: float
    end: float
    stage: str = ""
    device_id: str = ""
    replica: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class FlowRecord:
    """One flow's life, including its full bandwidth-epoch history.

    ``nominal_bw`` is the path's bottleneck capacity: the rate the flow
    would sustain alone.
    """

    flow_id: int
    tag: str
    owner: str
    links: tuple[str, ...]
    size: float
    nominal_bw: float
    started: float
    finished: Optional[float] = None
    # (t, rate) samples: the rate held from t until the next sample.
    rate_points: list[tuple[float, float]] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        if self.finished is None:
            return None
        return self.finished - self.started

    def epochs(self) -> list[tuple[float, float, float]]:
        """Piecewise-constant ``(t0, t1, rate)`` history of this flow."""
        if self.finished is None or not self.rate_points:
            return []
        out: list[tuple[float, float, float]] = []
        for i, (t0, rate) in enumerate(self.rate_points):
            t1 = (
                self.rate_points[i + 1][0]
                if i + 1 < len(self.rate_points)
                else self.finished
            )
            if t1 > t0:
                out.append((t0, t1, rate))
        return out


@dataclass
class TransferSpan:
    """One engine-level transfer (possibly many flows underneath)."""

    transfer_id: int
    tag: str
    owner: str
    size: float
    src: str
    dst: str
    start: float
    end: Optional[float] = None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start


@dataclass(frozen=True)
class PoolWait:
    """One pool allocation: request-to-grant delay on a device."""

    device_id: str
    requested_at: float
    granted_at: float
    size: float
    grew: bool

    @property
    def delay(self) -> float:
        return self.granted_at - self.requested_at


@dataclass
class RequestTree:
    """Everything the profiler knows about one request."""

    request_id: str
    workflow: str
    arrived: float
    finished: Optional[float] = None
    latency: Optional[float] = None
    slo_met: Optional[bool] = None
    # stage name -> spans in publish order (queue/get/cold-start/exec/put)
    stage_spans: dict[str, list[Span]] = field(default_factory=dict)
    egress_spans: list[Span] = field(default_factory=list)
    transfers: list[TransferSpan] = field(default_factory=list)
    flow_ids: list[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.finished is not None


# Span kinds, in the order a stage's rows render at one instant.
SPAN_KINDS = ("queue", "get", "cold-start", "exec", "put", "egress")
_GLYPHS = {
    "queue": ".",
    "get": "<",
    "cold-start": "c",
    "exec": "#",
    "put": ">",
    "egress": "e",
}


def gantt(tree: RequestTree, width: int = 60) -> str:
    """ASCII Gantt chart of one request.

    One row per stage or egress span, ordered by start time, then
    stage, then :data:`SPAN_KINDS`; glyphs: ``.`` queued, ``<``
    fetching inputs, ``c`` cold start, ``#`` executing, ``>``
    publishing output, ``e`` egress.
    """
    spans = sorted(
        [s for stage in tree.stage_spans.values() for s in stage]
        + tree.egress_spans,
        key=lambda s: (s.start, s.stage, SPAN_KINDS.index(s.kind)),
    )
    if not spans:
        return f"(no spans recorded for {tree.request_id})"
    t0 = spans[0].start
    horizon = max(max(s.end for s in spans) - t0, 1e-9)
    scale = width / horizon
    label_width = max(len(f"{s.stage}[{s.kind}]") for s in spans)
    lines = [
        f"request {tree.request_id}: {horizon * 1e3:.2f} ms "
        f"(. queue, < get, c cold, # exec, > put, e egress)"
    ]
    for span in spans:
        # Clamp into the chart: a span starting at the last column
        # must still render >= 1 glyph inside the bounds.
        begin = min(int((span.start - t0) * scale), width - 1)
        length = max(1, int(round(span.duration * scale)))
        length = min(length, width - begin)
        bar = " " * begin + _GLYPHS[span.kind] * length
        label = f"{span.stage}[{span.kind}]".ljust(label_width)
        lines.append(f"{label} |{bar.ljust(width)}|")
    return "\n".join(lines)


class SpanTreeBuilder:
    """Assembles :class:`RequestTree` objects from a telemetry stream."""

    def __init__(self) -> None:
        self.plane: str = ""
        self.requests: dict[str, RequestTree] = {}
        self.flows: dict[int, FlowRecord] = {}
        self.pool_waits: list[PoolWait] = []
        self._bus: Optional[EventBus] = None

    # -- live attachment ---------------------------------------------------
    def attach(self, bus: EventBus) -> "SpanTreeBuilder":
        """Subscribe to every event on *bus* (detachable later)."""
        self._bus = bus
        bus.subscribe(None, self.feed)
        return self

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe(None, self.feed)
            self._bus = None

    # -- event intake ------------------------------------------------------
    def feed(self, event: TelemetryEvent) -> None:
        """Fold one event into the trees (order must be publish order)."""
        if isinstance(event, StageSpan):
            tree = self.requests.get(event.request_id)
            if tree is None:
                return
            span = Span(
                kind=event.kind,
                start=event.start,
                end=event.end,
                stage=event.stage,
                device_id=event.device_id,
                replica=event.replica,
            )
            if event.kind == "egress":
                tree.egress_spans.append(span)
            else:
                tree.stage_spans.setdefault(event.stage, []).append(span)
        elif isinstance(event, RequestArrived):
            self.requests[event.request_id] = RequestTree(
                request_id=event.request_id,
                workflow=event.workflow,
                arrived=event.t,
            )
        elif isinstance(event, RequestFinished):
            tree = self.requests.get(event.request_id)
            if tree is not None:
                tree.finished = event.t
                tree.latency = event.latency
                tree.slo_met = event.slo_met
        elif isinstance(event, FlowStarted):
            record = FlowRecord(
                flow_id=event.flow_id,
                tag=event.tag,
                owner=event.owner,
                links=event.links,
                size=event.size,
                nominal_bw=min(event.capacities, default=0.0),
                started=event.t,
            )
            if event.rate is not None:
                record.rate_points.append((event.t, event.rate))
            self.flows[event.flow_id] = record
            if event.owner:
                tree = self.requests.get(event.owner)
                if tree is not None:
                    tree.flow_ids.append(event.flow_id)
        elif isinstance(event, FlowsReallocated):
            for flow_id, rate in zip(event.component, event.rates):
                record = self.flows.get(flow_id)
                if record is None:
                    continue
                points = record.rate_points
                if points and points[-1][0] == event.t:
                    points[-1] = (event.t, rate)
                else:
                    points.append((event.t, rate))
        elif isinstance(event, FlowFinished):
            record = self.flows.get(event.flow_id)
            if record is not None:
                record.finished = event.t
        elif isinstance(event, TransferStarted):
            span = TransferSpan(
                transfer_id=event.transfer_id,
                tag=event.tag,
                owner=event.owner,
                size=event.size,
                src=event.src,
                dst=event.dst,
                start=event.t,
            )
            if event.owner:
                tree = self.requests.get(event.owner)
                if tree is not None:
                    tree.transfers.append(span)
        elif isinstance(event, TransferFinished):
            if event.owner:
                tree = self.requests.get(event.owner)
                if tree is not None:
                    for span in reversed(tree.transfers):
                        if span.transfer_id == event.transfer_id:
                            span.end = event.t
                            break
        elif isinstance(event, PoolAlloc):
            self.pool_waits.append(PoolWait(
                device_id=event.device_id,
                requested_at=event.requested_at,
                granted_at=event.t,
                size=event.size,
                grew=event.grew,
            ))
        elif isinstance(event, PlaneInfo):
            self.plane = event.plane

    # -- convenience -------------------------------------------------------
    @property
    def completed(self) -> list[RequestTree]:
        """Finished requests, in arrival order."""
        return [t for t in self.requests.values() if t.complete]


def build_profiles(
    events: Iterable,
) -> dict[int, SpanTreeBuilder]:
    """Replay a recorded stream into one builder per run.

    Accepts either plain events or the ``(run_index, event)`` tuples a
    :class:`~repro.telemetry.TelemetrySession` stores; plain events all
    land in run 0.
    """
    builders: dict[int, SpanTreeBuilder] = {}
    for item in events:
        # Events are NamedTuples; only a (run, event) pair is a bare tuple.
        if type(item) is tuple:
            run, event = item
        else:
            run, event = 0, item
        builder = builders.get(run)
        if builder is None:
            builder = builders[run] = SpanTreeBuilder()
        builder.feed(event)
    return builders
