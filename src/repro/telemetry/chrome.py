"""Chrome / Perfetto ``trace_event`` JSON export.

Maps the telemetry event stream onto the Trace Event Format that
``chrome://tracing`` and https://ui.perfetto.dev render:

- one **process** (``pid``) per node (device ids are ``n0.g3``-style,
  so the node is the prefix before the first dot);
- one **thread** (``tid``) per GPU, link, or host device;
- transfers, flows, and request stage spans become complete (``"X"``)
  slices; store operations become instants (``"i"``); pool occupancy,
  replica outstanding work and stage-queue depth become counter
  (``"C"``) tracks.

Simulation seconds map to trace microseconds.  A telemetry session may
span several independent simulation runs (an experiment builds a fresh
``Environment`` per measurement); runs are kept apart by prefixing the
pid with ``run<N>:``.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Union

from repro.telemetry.events import (
    FlowFinished,
    PlacementDecision,
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
)

_US_PER_SECOND = 1e6
PLATFORM_PID = "platform"


def _node_of(device_id: str) -> str:
    """Node component of a device or link id (``n0.g3`` -> ``n0``)."""
    head = device_id.split(".", 1)[0]
    return head if head else "cluster"


def _ts(t: float) -> float:
    return t * _US_PER_SECOND


def _slice(name: str, cat: str, start: float, end: float, pid: str,
           tid: str, args: dict) -> dict:
    return {
        "name": name,
        "cat": cat,
        "ph": "X",
        "ts": _ts(start),
        "dur": max(_ts(end) - _ts(start), 0.0),
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def _instant(name: str, cat: str, t: float, pid: str, tid: str,
             args: dict) -> dict:
    return {
        "name": name,
        "cat": cat,
        "ph": "i",
        "s": "t",
        "ts": _ts(t),
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def _counter(name: str, t: float, pid: str, tid: str, values: dict) -> dict:
    return {
        "name": name,
        "ph": "C",
        "ts": _ts(t),
        "pid": pid,
        "tid": tid,
        "args": values,
    }


def convert_event(event: TelemetryEvent, pid_prefix: str = "") -> list[dict]:
    """One telemetry event -> zero or more trace_event dicts.

    Shared by the batch exporter below and the streaming
    :class:`~repro.telemetry.sinks.ChromeStreamingSink`.
    """
    p = pid_prefix
    if isinstance(event, FlowFinished):
        # One slice per link hop: every link is its own thread, so
        # Perfetto shows per-link occupancy lanes.
        args = {"size": event.size, "src": event.src, "dst": event.dst,
                "flow_id": event.flow_id}
        return [
            _slice(event.tag or f"flow{event.flow_id}", "net.flow",
                   event.started_at, event.t,
                   p + _node_of(link), link, args)
            for link in event.links
        ]
    if isinstance(event, TransferFinished):
        return [_slice(
            event.tag or "transfer", "net.transfer",
            event.started_at, event.t,
            p + _node_of(event.src), event.src,
            {"size": event.size, "src": event.src, "dst": event.dst},
        )]
    if isinstance(event, StageSpan):
        return [_slice(
            f"{event.stage}:{event.kind}", "request",
            event.start, event.end,
            p + _node_of(event.device_id), event.device_id,
            {"request_id": event.request_id},
        )]
    if isinstance(event, StorePut):
        return [_instant(
            f"put {event.object_id}", "storage", event.t,
            p + _node_of(event.device_id), event.device_id,
            {"size": event.size, "placement": event.placement},
        )]
    if isinstance(event, StoreGet):
        return [_instant(
            f"get {event.object_id}", "storage", event.t,
            p + _node_of(event.device_id), event.device_id,
            {"size": event.size, "category": event.category,
             "latency": event.latency},
        )]
    if isinstance(event, StoreEvict):
        return [_instant(
            f"evict {event.object_id}", "storage", event.t,
            p + _node_of(event.src_device), event.src_device,
            {"size": event.size, "dst": event.dst_device},
        )]
    if isinstance(event, (PoolAlloc, PoolFree, PoolTrim)):
        return [_counter(
            f"pool {event.device_id}", event.t,
            p + _node_of(event.device_id), event.device_id,
            {"reserved": event.reserved, "in_use": event.in_use},
        )]
    if isinstance(event, ReplicaOutstanding):
        return [_counter(
            f"outstanding {event.replica}", event.t,
            p + _node_of(event.device_id), event.device_id,
            {"outstanding": event.outstanding},
        )]
    if isinstance(event, StageQueueDepth):
        return [_counter(
            f"stage-queue {event.stage}", event.t,
            p + PLATFORM_PID, f"queue:{event.stage}",
            {"depth": event.depth},
        )]
    if isinstance(event, PlacementDecision):
        return [_instant(
            f"place {event.workflow}", "scheduler", event.t,
            p + PLATFORM_PID, "placement",
            {"policy": event.policy,
             "assignment": dict(event.assignment)},
        )]
    if isinstance(event, RequestArrived):
        return [_instant(
            f"arrive {event.request_id}", "request", event.t,
            p + PLATFORM_PID, "requests", {"workflow": event.workflow},
        )]
    if isinstance(event, RequestFinished):
        return [_slice(
            event.request_id, "request",
            event.t - event.latency, event.t,
            p + PLATFORM_PID, "requests",
            {"workflow": event.workflow, "slo_met": event.slo_met},
        )]
    return []  # starts and routing decisions pair into the slices above


def to_trace_events(
    events: Iterable[Union[TelemetryEvent, tuple[int, TelemetryEvent]]],
    multi_run: bool = False,
) -> list[dict]:
    """Convert a stream of (optionally run-tagged) events to trace dicts."""
    trace: list[dict] = []
    pids: set[str] = set()
    for item in events:
        run, event = item if isinstance(item, tuple) else (0, item)
        prefix = f"run{run}:" if multi_run else ""
        for record in convert_event(event, prefix):
            pids.add(record["pid"])
            trace.append(record)
    return process_metadata(pids) + trace


def process_metadata(pids: Iterable[str]) -> list[dict]:
    """Metadata records so Perfetto labels each process with its name."""
    return [
        {"name": "process_name", "ph": "M", "ts": 0.0, "pid": pid,
         "tid": "meta", "args": {"name": pid}}
        for pid in sorted(pids)
    ]


def export_chrome_trace(
    events: Iterable[Union[TelemetryEvent, tuple[int, TelemetryEvent]]],
    path: Optional[str] = None,
    multi_run: bool = False,
) -> dict:
    """Build (and optionally write) a Chrome ``trace_event`` document."""
    document = {
        "traceEvents": to_trace_events(events, multi_run=multi_run),
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.telemetry"},
    }
    if path is not None:
        with open(path, "w") as handle:
            json.dump(document, handle)
    return document
