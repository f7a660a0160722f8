"""Per-entity bounded time series derived from the telemetry stream.

The registry's gauges and histograms answer "what happened overall";
the :class:`TimeSeriesStore` answers "what was each entity doing over
time" — per-link utilization and contention, per-stage queue depth,
per-device pool occupancy, per-replica outstanding work, and
fast-path engagement — each as a bounded ring-buffer
:class:`EntitySeries` with windowed aggregates.

Everything here is derived **purely from published events**, never
from live simulator objects: link utilization comes from
``FlowStarted.capacities`` plus the per-flow rates carried by
``FlowsReallocated`` (and by a lone start's ``FlowStarted.rate``), not
from polling the network.  The store keeps each active flow's path, so
a reallocation's links are its members' paths and a ``FlowFinished``
is joined to its start on ``flow_id``.  That is the property the
health pipeline (:mod:`repro.telemetry.health`) builds on: it folds a
run's events, live or replayed from a JSONL spool, through
:meth:`TimeSeriesStore.feed`, and a replay reproduces every series,
and therefore every verdict, bit-identically.

Samples use edge semantics: multiple transitions at one instant
collapse to the final value.  An event whose timestamp precedes the
series tail (a macro-flow split replaying virtual-timestamp batches)
is clamped to the tail time and counted in the store's
``virtual_replays`` series rather than corrupting the ordering
invariant.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.telemetry.events import (
    FlowFinished,
    FlowsReallocated,
    FlowStarted,
    PoolAlloc,
    PoolFree,
    PoolTrim,
    ReplicaOutstanding,
    StageQueueDepth,
    TelemetryEvent,
)

DEFAULT_SERIES_CAPACITY = 4096


class EntitySeries:
    """A bounded ring buffer of (t, value) samples for one entity."""

    __slots__ = ("name", "kind", "times", "values", "capacity",
                 "total_samples", "clamped")

    def __init__(self, name: str, kind: str = "",
                 capacity: int = DEFAULT_SERIES_CAPACITY) -> None:
        if capacity < 2:
            raise ConfigError(f"series capacity must be >= 2, got {capacity}")
        self.name = name
        self.kind = kind
        self.capacity = capacity
        self.times: deque[float] = deque(maxlen=capacity)
        self.values: deque[float] = deque(maxlen=capacity)
        self.total_samples = 0  # including edge-collapsed and evicted
        self.clamped = 0  # out-of-order samples clamped to the tail time

    def record(self, t: float, value: float) -> None:
        """Record a sample with edge semantics and out-of-order clamping."""
        self.total_samples += 1
        if self.times:
            last = self.times[-1]
            if t < last:
                self.clamped += 1
                t = last
            if t == last:
                self.values[-1] = value
                return
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def last_t(self) -> float:
        return self.times[-1] if self.times else float("nan")

    @property
    def last_value(self) -> float:
        return self.values[-1] if self.values else float("nan")

    def window_samples(
        self, window: Optional[float] = None
    ) -> tuple[list[float], list[float]]:
        """(times, values) of the trailing *window* seconds (all if None)."""
        if window is None or not self.times:
            return list(self.times), list(self.values)
        cutoff = self.times[-1] - window
        times: list[float] = []
        values: list[float] = []
        for t, v in zip(reversed(self.times), reversed(self.values)):
            if t < cutoff:
                break
            times.append(t)
            values.append(v)
        times.reverse()
        values.reverse()
        return times, values

    def aggregates(self, window: Optional[float] = None,
                   percentiles: Iterable[float] = (50, 95)) -> dict:
        """min/mean/max/pXX over the trailing window (sample-weighted)."""
        _times, values = self.window_samples(window)
        if not values:
            return {"count": 0}
        arr = np.asarray(values, dtype=float)
        out = {
            "count": len(values),
            "min": float(arr.min()),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
            "last": float(arr[-1]),
        }
        for p in percentiles:
            out[f"p{p:g}"] = float(np.percentile(arr, p))
        return out


class _FlowState:
    """Live view of one flow, reconstructed from the event stream."""

    __slots__ = ("links", "started_at", "rate", "size")

    def __init__(self, links: tuple[str, ...], started_at: float,
                 size: float) -> None:
        self.links = links
        self.started_at = started_at
        self.size = size
        self.rate = 0.0


class TimeSeriesStore:
    """Folds events, one at a time (:meth:`feed`), into per-entity series.

    Series namespace (entity id after the last dot-segment prefix):

    - ``link.util.<link_id>`` — allocated/capacity utilization fraction
    - ``link.flows.<link_id>`` — flows concurrently on the link
    - ``queue.depth.<stage>`` — stage queue depth
    - ``pool.in_use.<device>`` / ``pool.reserved.<device>`` — bytes
    - ``replica.outstanding.<replica>`` — in-flight invocations
    - ``net.virtual_replays`` — cumulative virtual-timestamp events
      observed (macro-flow coalescing engagement indicator)
    """

    def __init__(self, capacity: int = DEFAULT_SERIES_CAPACITY) -> None:
        self.capacity = capacity
        self.series: dict[str, EntitySeries] = {}
        self.max_t = 0.0
        self.flows: dict[int, _FlowState] = {}
        self._link_capacity: dict[str, float] = {}
        self._link_flows: dict[str, set[int]] = {}
        self._virtual_replays = 0

    # -- series access --------------------------------------------------------
    def get(self, name: str, kind: str = "") -> EntitySeries:
        series = self.series.get(name)
        if series is None:
            series = EntitySeries(name, kind=kind, capacity=self.capacity)
            self.series[name] = series
        return series

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self.series if n.startswith(prefix))

    def link_capacity(self, link_id: str) -> float:
        """Capacity learned from the stream (0.0 if never seen)."""
        return self._link_capacity.get(link_id, 0.0)

    @property
    def active_flows(self) -> dict[int, _FlowState]:
        """Flows started but not finished at the current stream point."""
        return self.flows

    # -- intake ---------------------------------------------------------------
    def feed(self, event: TelemetryEvent) -> None:
        """Fold one event (events must arrive in publish order)."""
        if isinstance(event, FlowStarted):
            self._on_flow_started(event)
        elif isinstance(event, FlowsReallocated):
            self._on_flows_reallocated(event)
        elif isinstance(event, FlowFinished):
            self._on_flow_finished(event)
        elif isinstance(event, StageQueueDepth):
            self._on_queue_depth(event)
        elif isinstance(event, (PoolAlloc, PoolFree, PoolTrim)):
            self._on_pool(event)
        elif isinstance(event, ReplicaOutstanding):
            self._on_replica(event)

    # -- shared helpers -------------------------------------------------------
    def _observe_t(self, t: float) -> None:
        """Track stream progress; count virtual-timestamp replays."""
        if t < self.max_t:
            self._virtual_replays += 1
            self.get("net.virtual_replays", kind="engagement").record(
                self.max_t, float(self._virtual_replays)
            )
        else:
            self.max_t = t

    def _sample_link(self, link_id: str, t: float) -> None:
        capacity = self._link_capacity.get(link_id, 0.0)
        members = self._link_flows.get(link_id, ())
        allocated = 0.0
        for flow_id in members:
            state = self.flows.get(flow_id)
            if state is not None:
                allocated += state.rate
        util = allocated / capacity if capacity > 0 else 0.0
        self.get(f"link.util.{link_id}", kind="link").record(t, util)
        self.get(f"link.flows.{link_id}", kind="link").record(
            t, float(len(members))
        )

    # -- handlers -------------------------------------------------------------
    def _on_flow_started(self, event: FlowStarted) -> None:
        self._observe_t(event.t)
        state = _FlowState(event.links, event.t, event.size)
        self.flows[event.flow_id] = state
        for index, link_id in enumerate(event.links):
            if index < len(event.capacities):
                self._link_capacity[link_id] = event.capacities[index]
            self._link_flows.setdefault(link_id, set()).add(event.flow_id)
        for link_id in event.links:
            self._sample_link(link_id, event.t)
        if event.rate is not None:
            # A lone start: this event also stands for the one-flow
            # reallocation that set its first rate, so fold that point
            # too (a second sample per link, a second stream point).
            self._observe_t(event.t)
            state.rate = event.rate
            for link_id in dict.fromkeys(event.links):
                self._sample_link(link_id, event.t)

    def _on_flows_reallocated(self, event: FlowsReallocated) -> None:
        self._observe_t(event.t)
        links: dict[str, None] = {}
        for flow_id, rate in zip(event.component, event.rates):
            state = self.flows.get(flow_id)
            if state is not None:
                state.rate = rate
                links.update(dict.fromkeys(state.links))
        for link_id in links:
            self._sample_link(link_id, event.t)

    def _on_flow_finished(self, event: FlowFinished) -> None:
        self._observe_t(event.t)
        state = self.flows.pop(event.flow_id, None)
        if state is None:
            return
        for link_id in state.links:
            members = self._link_flows.get(link_id)
            if members is not None:
                members.discard(event.flow_id)
        for link_id in state.links:
            self._sample_link(link_id, event.t)

    def _on_queue_depth(self, event: StageQueueDepth) -> None:
        self._observe_t(event.t)
        self.get(f"queue.depth.{event.stage}", kind="queue").record(
            event.t, float(event.depth)
        )

    def _on_pool(self, event) -> None:
        self._observe_t(event.t)
        self.get(f"pool.in_use.{event.device_id}", kind="pool").record(
            event.t, event.in_use
        )
        self.get(f"pool.reserved.{event.device_id}", kind="pool").record(
            event.t, event.reserved
        )

    def _on_replica(self, event: ReplicaOutstanding) -> None:
        self._observe_t(event.t)
        self.get(
            f"replica.outstanding.{event.replica}", kind="replica"
        ).record(event.t, float(event.outstanding))
