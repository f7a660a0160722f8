"""Typed telemetry events published on the :class:`~repro.telemetry.EventBus`.

Every modelled resource emits one of these when telemetry is enabled:
the flow network (per-flow link occupancy), the transfer engine
(chunk-batched transfers), the GPU/host stores (residency changes), the
data planes (start-up, Gets and evictions), the memory pools
(alloc/free with occupancy), the placement policies, and the platform
(request lifecycle and per-stage spans).

Events are :class:`typing.NamedTuple`\\ s, built positionally by their
publishers: immutable and hashable, so subscribers can keep them
forever, and cheap enough to build on every flow arrival.  Being
tuples, two events of different types with equal fields compare equal;
dispatch on ``type(event)``.  Every type is registered as a virtual
subclass of :class:`TelemetryEvent`, and ``t`` is always its first
field: the simulation time the event was published at.

The flow events record each fact once.  :class:`FlowStarted` carries
what a flow is (its path, size and owner); :class:`FlowsReallocated`
carries rate epochs; :class:`FlowFinished` carries only the finish
instant, and consumers join it to the start on ``flow_id``.
"""

import abc
from typing import NamedTuple, Optional


class TelemetryEvent(abc.ABC):
    """Base of every published event (each type registers itself)."""

    __slots__ = ()


def _event(cls: type) -> type:
    TelemetryEvent.register(cls)
    return cls


# -- network -----------------------------------------------------------------
@_event
class FlowStarted(NamedTuple):
    """A flow began occupying its link path.

    ``owner`` is the request id the flow moves data for (empty for
    background work such as eviction migrations).  ``capacities`` is
    aligned index-for-index with ``links`` (per-link capacity in
    bytes/sec), so stream consumers can derive per-link utilization
    fractions without a live :class:`~repro.net.network.FlowNetwork` —
    the property that lets a spooled run reproduce health verdicts
    bit-identically.  Its minimum is the rate the flow would sustain
    alone, which the profiler uses to split transfer time into
    serialization vs. link contention.

    ``rate`` is the flow's first rate epoch when it starts alone in its
    bandwidth component, and ``None`` otherwise.  A lone start publishes
    this event after its reallocation, in place of the one-flow
    :class:`FlowsReallocated`; any other start publishes it before the
    reallocation that includes the flow.
    """

    t: float
    flow_id: int
    tag: str
    size: float
    links: tuple[str, ...]
    src: str
    dst: str
    owner: str = ""
    capacities: tuple[float, ...] = ()
    rate: Optional[float] = None


@_event
class FlowFinished(NamedTuple):
    """A flow drained its last byte (``t`` is the finish time).

    Everything else about the flow is on its :class:`FlowStarted`.
    """

    t: float
    flow_id: int


@_event
class FlowsReallocated(NamedTuple):
    """One component-scoped rate recomputation in the flow network.

    Published on flow arrivals, departures and cancels for each
    connected component whose rates were recomputed, except a flow that
    starts alone (its :class:`FlowStarted` carries the rate).
    ``component`` lists the flow ids whose rates were re-derived; the
    links bounding them are the union of their paths.

    ``rates`` is aligned index-for-index with ``component``: the rate
    each member flow holds from this instant until the next
    reallocation that includes it — the *bandwidth epochs* the
    profiler's contention attributor integrates over.
    """

    t: float
    component: tuple[int, ...]
    rates: tuple[float, ...]


@_event
class TransferStarted(NamedTuple):
    """A (possibly multi-path, chunk-batched) transfer began."""

    t: float
    transfer_id: int
    tag: str
    size: float
    src: str
    dst: str
    num_paths: int
    owner: str = ""


@_event
class TransferFinished(NamedTuple):
    """The transfer's last path completed."""

    t: float
    transfer_id: int
    tag: str
    size: float
    src: str
    dst: str
    started_at: float
    owner: str = ""


# -- storage ------------------------------------------------------------------
@_event
class StorePut(NamedTuple):
    """An object became resident on a GPU or host store."""

    t: float
    object_id: str
    device_id: str
    size: float
    placement: str  # "gpu" | "host"


@_event
class StoreGet(NamedTuple):
    """A plane-level Get completed (``t`` is the completion time)."""

    t: float
    object_id: str
    device_id: str
    size: float
    category: str
    latency: float


@_event
class StoreEvict(NamedTuple):
    """An object's bytes were migrated off a GPU under pressure."""

    t: float
    object_id: str
    src_device: str
    dst_device: str
    size: float


# -- memory --------------------------------------------------------------------
@_event
class PoolAlloc(NamedTuple):
    """A pool allocation completed; carries post-alloc occupancy.

    ``requested_at`` is when the allocation was asked for; ``t`` minus
    ``requested_at`` is the allocation delay (pool hit latency or the
    ``cudaMalloc``-scale growth cost), otherwise unrecoverable from the
    stream.
    """

    t: float
    device_id: str
    size: float
    reserved: float
    in_use: float
    grew: bool
    requested_at: float = 0.0


@_event
class PoolFree(NamedTuple):
    """An allocation returned to its pool."""

    t: float
    device_id: str
    size: float
    reserved: float
    in_use: float


@_event
class PoolTrim(NamedTuple):
    """An elastic trim released reserved-but-idle bytes."""

    t: float
    device_id: str
    released: float
    reserved: float
    in_use: float


# -- scheduler ------------------------------------------------------------------
@_event
class PlacementDecision(NamedTuple):
    """A placement policy mapped a workflow's GPU stages to devices."""

    t: float
    policy: str
    workflow: str
    assignment: tuple[tuple[str, str], ...]  # (stage, device_id) pairs


# -- requests -------------------------------------------------------------------
@_event
class RequestArrived(NamedTuple):
    """A request entered the platform's pending queue."""

    t: float
    request_id: str
    workflow: str


@_event
class RequestFinished(NamedTuple):
    """A request drained its egress output."""

    t: float
    request_id: str
    workflow: str
    latency: float
    slo_met: Optional[bool]


@_event
class StageSpan(NamedTuple):
    """One timed region of a request stage.

    ``kind`` is one of ``queue`` / ``get`` / ``cold-start`` / ``exec``
    / ``put`` / ``egress``.  ``replica`` is the instance id dispatch
    chose for this stage invocation (empty for I/O spans), so span
    consumers can tell apart replicas co-resident on one device.
    """

    t: float
    request_id: str
    stage: str
    kind: str
    start: float
    end: float
    device_id: str
    replica: str = ""


@_event
class ReplicaOutstanding(NamedTuple):
    """A replica's in-flight work count changed (counter-track sample).

    Published by :class:`~repro.functions.instance.FunctionInstance` on
    every ``begin_work``/``end_work`` edge, so consumers can reconstruct
    per-replica load without polling the instance registry.
    """

    t: float
    replica: str
    device_id: str
    outstanding: int


@_event
class StageQueueDepth(NamedTuple):
    """A stage queue's depth changed (counter-track sample)."""

    t: float
    stage: str
    depth: int


# -- data plane ----------------------------------------------------------------
@_event
class PlaneInfo(NamedTuple):
    """A data plane came up on this environment (labels the run)."""

    t: float
    plane: str
