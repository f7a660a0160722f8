"""Unified telemetry: event bus, metrics registry, Perfetto export.

Every layer of the data plane publishes typed events to an
:class:`EventBus` attached to the simulation environment
(``env.telemetry``, ``None`` by default — a disabled run pays one
attribute check per potential event).  Consumers aggregate the stream:
:class:`StandardMetrics` into a namespaced :class:`MetricsRegistry`,
:class:`TimeSeriesStore` into per-entity series for the health board,
and :func:`export_chrome_trace` into a ``trace.json`` any run can open
in ``ui.perfetto.dev``; :class:`TelemetrySession` keeps the raw event
list.  ``python -m repro trace <experiment>`` wires it all together
from the command line.
"""

from repro.telemetry.bus import EventBus
from repro.telemetry.chrome import export_chrome_trace, to_trace_events
from repro.telemetry.events import (
    FlowFinished,
    FlowsReallocated,
    FlowStarted,
    PlacementDecision,
    PlaneInfo,
    PoolAlloc,
    PoolFree,
    PoolTrim,
    ReplicaOutstanding,
    RequestArrived,
    RequestFinished,
    StageQueueDepth,
    StageSpan,
    StoreEvict,
    StoreGet,
    StorePut,
    TelemetryEvent,
    TransferFinished,
    TransferStarted,
)
from repro.telemetry.health import (
    build_health,
    build_run_health,
    fold_runs,
    format_dashboard,
    health_trace_events,
)
from repro.telemetry.metrics import (
    BoundedGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.recorder import StandardMetrics
from repro.telemetry.session import TelemetrySession, capture
from repro.telemetry.slo import (
    Episode,
    SloBoard,
    SloSpec,
    SloTracker,
    default_specs,
)
from repro.telemetry.timeseries import EntitySeries, TimeSeriesStore
from repro.telemetry.sinks import (
    ChromeStreamingSink,
    JsonlEventSink,
    StreamingSink,
    decode_event,
    encode_event,
    iter_jsonl_events,
    replay_metrics,
)

__all__ = [
    "BoundedGauge",
    "ChromeStreamingSink",
    "Counter",
    "EntitySeries",
    "Episode",
    "EventBus",
    "FlowFinished",
    "FlowStarted",
    "FlowsReallocated",
    "Gauge",
    "Histogram",
    "JsonlEventSink",
    "MetricsRegistry",
    "PlacementDecision",
    "PlaneInfo",
    "PoolAlloc",
    "PoolFree",
    "PoolTrim",
    "ReplicaOutstanding",
    "RequestArrived",
    "RequestFinished",
    "SloBoard",
    "SloSpec",
    "SloTracker",
    "StageQueueDepth",
    "StageSpan",
    "StandardMetrics",
    "StoreEvict",
    "StoreGet",
    "StorePut",
    "StreamingSink",
    "TelemetryEvent",
    "TelemetrySession",
    "TimeSeriesStore",
    "TransferFinished",
    "TransferStarted",
    "build_health",
    "build_run_health",
    "capture",
    "decode_event",
    "default_specs",
    "encode_event",
    "export_chrome_trace",
    "fold_runs",
    "format_dashboard",
    "health_trace_events",
    "iter_jsonl_events",
    "replay_metrics",
    "to_trace_events",
]
