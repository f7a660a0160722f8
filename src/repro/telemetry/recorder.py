"""Standard bus consumer: metric aggregation.

:class:`StandardMetrics` folds events into a
:class:`~repro.telemetry.metrics.MetricsRegistry` under the ``net``,
``storage``, ``memory`` and ``scheduler`` namespaces.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.common.units import MS
from repro.telemetry.bus import EventBus
from repro.telemetry.events import (
    FlowFinished,
    FlowStarted,
    PlacementDecision,
    PoolAlloc,
    PoolFree,
    PoolTrim,
    RequestArrived,
    RequestFinished,
    StageSpan,
    StoreEvict,
    StoreGet,
    StorePut,
    TransferFinished,
)
from repro.telemetry.metrics import (
    BoundedGauge,
    Gauge,
    Histogram,
    MetricsRegistry,
)

_Gauge = Union[Gauge, BoundedGauge]


class StandardMetrics:
    """Folds bus events into namespaced counters/gauges/histograms.

    The core counters of all four subsystem namespaces are registered
    eagerly so a metrics summary always covers ``net``, ``storage``,
    ``memory`` and ``scheduler`` even when a run never exercised one of
    them.  The consumer holds every metric object it updates, so an
    event costs no lookup by name.  ``net.bytes_moved`` counts a flow's
    size when it finishes, joined to its start on ``flow_id``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._subscriptions: list[tuple[EventBus, dict]] = []
        reg = self.registry
        # Eager registration: the summary always lists every namespace.
        self._flows = reg.counter("net.flows")
        self._transfers = reg.counter("net.transfers")
        self._bytes_moved = reg.counter("net.bytes_moved")
        self._puts = reg.counter("storage.puts")
        self._gets = reg.counter("storage.gets")
        self._bytes_put = reg.counter("storage.bytes_put")
        self._evictions = reg.counter("storage.evictions")
        self._evicted_bytes = reg.counter("storage.evicted_bytes")
        self._allocs = reg.counter("memory.allocs")
        self._frees = reg.counter("memory.frees")
        self._pool_growths = reg.counter("memory.pool_growths")
        self._trims = reg.counter("memory.trims")
        self._placements = reg.counter("scheduler.placements")
        self._arrived = reg.counter("scheduler.requests_arrived")
        self._finished = reg.counter("scheduler.requests_finished")
        self._slo_violations = reg.counter("scheduler.slo_violations")
        self._transfer_ms = reg.histogram("net.transfer_ms")
        self._get_ms = reg.histogram("storage.get_ms")
        self._request_ms = reg.histogram("scheduler.request_ms")
        # Registered on first use: per-device pool gauges (reserved,
        # in_use) and per-kind stage-span histograms.
        self._pool_gauges: dict[str, tuple[_Gauge, _Gauge]] = {}
        self._stage_ms: dict[str, Histogram] = {}
        # flow_id -> size of every flow started and not yet finished.
        self._open_flows: dict[int, float] = {}

    def attach(self, bus: EventBus) -> "StandardMetrics":
        handlers = {
            FlowStarted: self._on_flow_started,
            FlowFinished: self._on_flow_finished,
            TransferFinished: self._on_transfer_finished,
            StorePut: self._on_store_put,
            StoreGet: self._on_store_get,
            StoreEvict: self._on_store_evict,
            PoolAlloc: self._on_pool_alloc,
            PoolFree: self._on_pool_free,
            PoolTrim: self._on_pool_trim,
            PlacementDecision: self._on_placement,
            RequestArrived: self._on_request_arrived,
            RequestFinished: self._on_request_finished,
            StageSpan: self._on_stage_span,
        }
        for event_type, handler in handlers.items():
            bus.subscribe(event_type, handler)
        self._subscriptions.append((bus, handlers))
        return self

    def detach(self) -> None:
        """Unsubscribe every handler from every bus it was attached to.

        A registry reused across ``capture()`` sessions would otherwise
        keep all handlers subscribed forever and double-count events on
        a re-attach.
        """
        for bus, handlers in self._subscriptions:
            for event_type, handler in handlers.items():
                bus.unsubscribe(event_type, handler)
        self._subscriptions.clear()

    # -- net -----------------------------------------------------------------
    def _on_flow_started(self, event: FlowStarted) -> None:
        self._flows.inc()
        self._open_flows[event.flow_id] = event.size

    def _on_flow_finished(self, event: FlowFinished) -> None:
        size = self._open_flows.pop(event.flow_id, None)
        if size is not None:
            self._bytes_moved.inc(size)

    def _on_transfer_finished(self, event: TransferFinished) -> None:
        self._transfers.inc()
        self._transfer_ms.observe((event.t - event.started_at) / MS)

    # -- storage ----------------------------------------------------------------
    def _on_store_put(self, event: StorePut) -> None:
        self._puts.inc()
        self._bytes_put.inc(event.size)

    def _on_store_get(self, event: StoreGet) -> None:
        self._gets.inc()
        self._get_ms.observe(event.latency / MS)

    def _on_store_evict(self, event: StoreEvict) -> None:
        self._evictions.inc()
        self._evicted_bytes.inc(event.size)

    # -- memory -------------------------------------------------------------------
    def _on_pool_alloc(self, event: PoolAlloc) -> None:
        self._allocs.inc()
        if event.grew:
            self._pool_growths.inc()
        self._sample_pool(event)

    def _on_pool_free(self, event: PoolFree) -> None:
        self._frees.inc()
        self._sample_pool(event)

    def _on_pool_trim(self, event: PoolTrim) -> None:
        self._trims.inc()
        self._sample_pool(event)

    def _sample_pool(self, event) -> None:
        gauges = self._pool_gauges.get(event.device_id)
        if gauges is None:
            reg = self.registry
            gauges = self._pool_gauges[event.device_id] = (
                reg.gauge(f"memory.pool_reserved.{event.device_id}"),
                reg.gauge(f"memory.pool_in_use.{event.device_id}"),
            )
        reserved, in_use = gauges
        reserved.set(event.t, event.reserved)
        in_use.set(event.t, event.in_use)

    # -- scheduler --------------------------------------------------------------------
    def _on_placement(self, event: PlacementDecision) -> None:
        self._placements.inc()

    def _on_request_arrived(self, event: RequestArrived) -> None:
        self._arrived.inc()

    def _on_request_finished(self, event: RequestFinished) -> None:
        self._finished.inc()
        self._request_ms.observe(event.latency / MS)
        if event.slo_met is False:
            self._slo_violations.inc()

    def _on_stage_span(self, event: StageSpan) -> None:
        histogram = self._stage_ms.get(event.kind)
        if histogram is None:
            histogram = self._stage_ms[event.kind] = self.registry.histogram(
                f"scheduler.stage_{event.kind}_ms"
            )
        histogram.observe((event.end - event.start) / MS)
