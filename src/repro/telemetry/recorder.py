"""Standard bus consumer: metric aggregation.

:class:`StandardMetrics` folds events into a
:class:`~repro.telemetry.metrics.MetricsRegistry` under the ``net``,
``storage``, ``memory`` and ``scheduler`` namespaces.
"""

from __future__ import annotations

from typing import Optional

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
from repro.telemetry.metrics import MetricsRegistry


class StandardMetrics:
    """Folds bus events into namespaced counters/gauges/histograms.

    The core counters of all four subsystem namespaces are registered
    eagerly so a metrics summary always covers ``net``, ``storage``,
    ``memory`` and ``scheduler`` even when a run never exercised one of
    them.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._subscriptions: list[tuple[EventBus, dict]] = []
        reg = self.registry
        # Eager registration: the summary always lists every namespace.
        for name in (
            "net.flows",
            "net.transfers",
            "net.bytes_moved",
            "storage.puts",
            "storage.gets",
            "storage.bytes_put",
            "storage.evictions",
            "storage.evicted_bytes",
            "memory.allocs",
            "memory.frees",
            "memory.pool_growths",
            "memory.trims",
            "scheduler.placements",
            "scheduler.requests_arrived",
            "scheduler.requests_finished",
            "scheduler.slo_violations",
        ):
            reg.counter(name)
        reg.histogram("net.transfer_ms")
        reg.histogram("storage.get_ms")
        reg.histogram("scheduler.request_ms")

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
        self.registry.counter("net.flows").inc()

    def _on_flow_finished(self, event: FlowFinished) -> None:
        self.registry.counter("net.bytes_moved").inc(event.size)

    def _on_transfer_finished(self, event: TransferFinished) -> None:
        self.registry.counter("net.transfers").inc()
        self.registry.histogram("net.transfer_ms").observe(
            (event.t - event.started_at) / MS
        )

    # -- storage ----------------------------------------------------------------
    def _on_store_put(self, event: StorePut) -> None:
        self.registry.counter("storage.puts").inc()
        self.registry.counter("storage.bytes_put").inc(event.size)

    def _on_store_get(self, event: StoreGet) -> None:
        self.registry.counter("storage.gets").inc()
        self.registry.histogram("storage.get_ms").observe(event.latency / MS)

    def _on_store_evict(self, event: StoreEvict) -> None:
        self.registry.counter("storage.evictions").inc()
        self.registry.counter("storage.evicted_bytes").inc(event.size)

    # -- memory -------------------------------------------------------------------
    def _on_pool_alloc(self, event: PoolAlloc) -> None:
        self.registry.counter("memory.allocs").inc()
        if event.grew:
            self.registry.counter("memory.pool_growths").inc()
        self._sample_pool(event.device_id, event.t, event.reserved,
                          event.in_use)

    def _on_pool_free(self, event: PoolFree) -> None:
        self.registry.counter("memory.frees").inc()
        self._sample_pool(event.device_id, event.t, event.reserved,
                          event.in_use)

    def _on_pool_trim(self, event: PoolTrim) -> None:
        self.registry.counter("memory.trims").inc()
        self._sample_pool(event.device_id, event.t, event.reserved,
                          event.in_use)

    def _sample_pool(self, device_id: str, t: float, reserved: float,
                     in_use: float) -> None:
        self.registry.gauge(f"memory.pool_reserved.{device_id}").set(
            t, reserved
        )
        self.registry.gauge(f"memory.pool_in_use.{device_id}").set(t, in_use)

    # -- scheduler --------------------------------------------------------------------
    def _on_placement(self, event: PlacementDecision) -> None:
        self.registry.counter("scheduler.placements").inc()

    def _on_request_arrived(self, event: RequestArrived) -> None:
        self.registry.counter("scheduler.requests_arrived").inc()

    def _on_request_finished(self, event: RequestFinished) -> None:
        self.registry.counter("scheduler.requests_finished").inc()
        self.registry.histogram("scheduler.request_ms").observe(
            event.latency / MS
        )
        if event.slo_met is False:
            self.registry.counter("scheduler.slo_violations").inc()

    def _on_stage_span(self, event: StageSpan) -> None:
        self.registry.histogram(f"scheduler.stage_{event.kind}_ms").observe(
            (event.end - event.start) / MS
        )
