"""Typed telemetry events published on the :class:`~repro.telemetry.EventBus`.

Every modelled resource emits one of these when telemetry is enabled:
the flow network (per-flow link occupancy), the transfer engine
(chunk-batched transfers), the GPU/host stores (residency changes), the
data planes (start-up, Gets and evictions), the memory pools
(alloc/free with occupancy), the placement policies, and the platform
(request lifecycle and per-stage spans).

Events are frozen dataclasses so subscribers can keep them forever;
``t`` is always the simulation time the event was published at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class: anything published on the bus."""

    t: float


# -- network -----------------------------------------------------------------
@dataclass(frozen=True)
class FlowStarted(TelemetryEvent):
    """A flow began occupying its link path.

    ``nominal_bw`` is the bottleneck link capacity along the path — the
    rate the flow would sustain alone, which the profiler uses to split
    transfer time into serialization vs. link contention.  ``owner`` is
    the request id the flow moves data for (empty for background work
    such as eviction migrations).  ``capacities`` is aligned
    index-for-index with ``links`` (per-link capacity in bytes/sec), so
    stream consumers can derive per-link utilization fractions without
    a live :class:`~repro.net.network.FlowNetwork` — the property that
    lets a spooled run reproduce health verdicts bit-identically.
    """

    flow_id: int
    tag: str
    size: float
    links: tuple[str, ...]
    src: str
    dst: str
    nominal_bw: float = 0.0
    owner: str = ""
    capacities: tuple[float, ...] = ()


@dataclass(frozen=True)
class FlowFinished(TelemetryEvent):
    """A flow drained its last byte (``t`` is the finish time)."""

    flow_id: int
    tag: str
    size: float
    links: tuple[str, ...]
    src: str
    dst: str
    started_at: float
    owner: str = ""


@dataclass(frozen=True)
class FlowsReallocated(TelemetryEvent):
    """One component-scoped rate recomputation in the flow network.

    Published on every flow arrival/departure for each connected
    component whose rates were recomputed.  ``component`` lists the
    flow ids whose rates were re-derived, ``links`` the links bounding
    them, and ``rescheduled`` the subset whose completion timers were
    actually rearmed (the rest had exactly unchanged rates).

    ``rates`` is aligned index-for-index with ``component``: the rate
    each member flow holds from this instant until the next
    reallocation that includes it — the *bandwidth epochs* the
    profiler's contention attributor integrates over.
    """

    trigger: str  # "start" | "finish" | "cancel"
    flow_id: int  # the flow whose arrival/departure triggered it
    component: tuple[int, ...]
    links: tuple[str, ...]
    rescheduled: tuple[int, ...]
    rates: tuple[float, ...] = ()


@dataclass(frozen=True)
class TransferStarted(TelemetryEvent):
    """A (possibly multi-path, chunk-batched) transfer began."""

    transfer_id: int
    tag: str
    size: float
    src: str
    dst: str
    num_paths: int
    owner: str = ""


@dataclass(frozen=True)
class TransferFinished(TelemetryEvent):
    """The transfer's last path completed."""

    transfer_id: int
    tag: str
    size: float
    src: str
    dst: str
    started_at: float
    owner: str = ""


# -- storage ------------------------------------------------------------------
@dataclass(frozen=True)
class StorePut(TelemetryEvent):
    """An object became resident on a GPU or host store."""

    object_id: str
    device_id: str
    size: float
    placement: str  # "gpu" | "host"


@dataclass(frozen=True)
class StoreGet(TelemetryEvent):
    """A plane-level Get completed (``t`` is the completion time)."""

    object_id: str
    device_id: str
    size: float
    category: str
    latency: float


@dataclass(frozen=True)
class StoreEvict(TelemetryEvent):
    """An object's bytes were migrated off a GPU under pressure."""

    object_id: str
    src_device: str
    dst_device: str
    size: float


# -- memory --------------------------------------------------------------------
@dataclass(frozen=True)
class PoolAlloc(TelemetryEvent):
    """A pool allocation completed; carries post-alloc occupancy.

    ``requested_at`` is when the allocation was asked for; ``t`` minus
    ``requested_at`` is the allocation delay (pool hit latency or the
    ``cudaMalloc``-scale growth cost), otherwise unrecoverable from the
    stream.
    """

    device_id: str
    size: float
    reserved: float
    in_use: float
    grew: bool
    requested_at: float = 0.0


@dataclass(frozen=True)
class PoolFree(TelemetryEvent):
    """An allocation returned to its pool."""

    device_id: str
    size: float
    reserved: float
    in_use: float


@dataclass(frozen=True)
class PoolTrim(TelemetryEvent):
    """An elastic trim released reserved-but-idle bytes."""

    device_id: str
    released: float
    reserved: float
    in_use: float


# -- scheduler ------------------------------------------------------------------
@dataclass(frozen=True)
class PlacementDecision(TelemetryEvent):
    """A placement policy mapped a workflow's GPU stages to devices."""

    policy: str
    workflow: str
    assignment: tuple[tuple[str, str], ...]  # (stage, device_id) pairs


# -- requests -------------------------------------------------------------------
@dataclass(frozen=True)
class RequestArrived(TelemetryEvent):
    """A request entered the platform's pending queue."""

    request_id: str
    workflow: str


@dataclass(frozen=True)
class RequestFinished(TelemetryEvent):
    """A request drained its egress output."""

    request_id: str
    workflow: str
    latency: float
    slo_met: Optional[bool]


@dataclass(frozen=True)
class StageSpan(TelemetryEvent):
    """One timed region of a request stage.

    ``kind`` is one of ``queue`` / ``get`` / ``cold-start`` / ``exec``
    / ``put`` / ``egress``.  ``replica`` is the instance id dispatch
    chose for this stage invocation (empty for I/O spans), so span
    consumers can tell apart replicas co-resident on one device.
    """

    request_id: str
    stage: str
    kind: str
    start: float
    end: float
    device_id: str
    replica: str = ""


@dataclass(frozen=True)
class ReplicaOutstanding(TelemetryEvent):
    """A replica's in-flight work count changed (counter-track sample).

    Published by :class:`~repro.functions.instance.FunctionInstance` on
    every ``begin_work``/``end_work`` edge, so consumers can reconstruct
    per-replica load without polling the instance registry.
    """

    replica: str
    device_id: str
    outstanding: int


@dataclass(frozen=True)
class StageQueueDepth(TelemetryEvent):
    """A stage queue's depth changed (counter-track sample)."""

    stage: str
    depth: int


# -- data plane ----------------------------------------------------------------
@dataclass(frozen=True)
class PlaneInfo(TelemetryEvent):
    """A data plane came up on this environment (labels the run)."""

    plane: str
