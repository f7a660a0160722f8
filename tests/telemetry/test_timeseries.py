"""Tests for per-entity bounded time series (repro.telemetry.timeseries)."""

import pytest

from repro.common.errors import ConfigError
from repro.telemetry import EventBus
from repro.telemetry.events import (
    FlowFinished,
    FlowsReallocated,
    FlowStarted,
    PoolAlloc,
    ReplicaOutstanding,
    StageQueueDepth,
)
from repro.telemetry.timeseries import EntitySeries, TimeSeriesStore


def flow_started(t, flow_id, links=("l0",), capacities=(100.0,), size=50.0):
    return FlowStarted(
        t=t, flow_id=flow_id, tag="f", size=size, links=tuple(links),
        src="a", dst="b", nominal_bw=min(capacities), owner="",
        capacities=tuple(capacities),
    )


def reallocated(t, flow_id, component, rates, links=("l0",)):
    return FlowsReallocated(
        t=t, trigger="start", flow_id=flow_id, component=tuple(component),
        links=tuple(links), rescheduled=tuple(component), rates=tuple(rates),
    )


def flow_finished(t, flow_id, links=("l0",), size=50.0):
    return FlowFinished(
        t=t, flow_id=flow_id, tag="f", size=size, links=tuple(links),
        src="a", dst="b", started_at=0.0, owner="",
    )


class TestEntitySeries:
    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            EntitySeries("x", capacity=1)

    def test_edge_collapse_same_instant(self):
        series = EntitySeries("x")
        series.record(0.0, 1.0)
        series.record(0.0, 2.0)
        series.record(0.0, 3.0)
        assert len(series) == 1
        assert series.last_value == 3.0
        assert series.total_samples == 3

    def test_out_of_order_clamps_to_tail(self):
        series = EntitySeries("x")
        series.record(1.0, 1.0)
        series.record(0.5, 9.0)  # virtual-timestamp replay
        assert len(series) == 1
        assert series.last_t == 1.0
        assert series.last_value == 9.0
        assert series.clamped == 1

    def test_ring_bound(self):
        series = EntitySeries("x", capacity=4)
        for i in range(10):
            series.record(float(i), float(i))
        assert len(series) == 4
        assert list(series.times) == [6.0, 7.0, 8.0, 9.0]
        assert series.total_samples == 10

    def test_window_samples_and_aggregates(self):
        series = EntitySeries("x")
        for i in range(10):
            series.record(float(i), float(i))
        times, values = series.window_samples(window=3.0)
        assert times == [6.0, 7.0, 8.0, 9.0]
        agg = series.aggregates(window=3.0)
        assert agg["count"] == 4
        assert agg["min"] == 6.0
        assert agg["max"] == 9.0
        assert agg["mean"] == pytest.approx(7.5)
        assert agg["last"] == 9.0
        assert "p50" in agg and "p95" in agg

    def test_empty_aggregates(self):
        assert EntitySeries("x").aggregates() == {"count": 0}


class TestTimeSeriesStore:
    def test_link_utilization_from_stream(self):
        store = TimeSeriesStore()
        store.feed(flow_started(0.0, 1, capacities=(100.0,)))
        store.feed(reallocated(0.0, 1, (1,), (50.0,)))
        util = store.get("link.util.l0")
        assert util.last_value == pytest.approx(0.5)
        store.feed(flow_started(1.0, 2, capacities=(100.0,)))
        store.feed(reallocated(1.0, 2, (1, 2), (50.0, 50.0)))
        assert util.last_value == pytest.approx(1.0)
        assert store.get("link.flows.l0").last_value == 2.0
        store.feed(flow_finished(2.0, 1))
        store.feed(reallocated(2.0, 1, (2,), (100.0,)))
        assert util.last_value == pytest.approx(1.0)
        store.feed(flow_finished(3.0, 2))
        assert util.last_value == 0.0
        assert store.get("link.flows.l0").last_value == 0.0
        assert not store.active_flows

    def test_capacity_learned_from_flow_started(self):
        store = TimeSeriesStore()
        store.feed(flow_started(0.0, 1, links=("a", "b"),
                                capacities=(100.0, 200.0)))
        assert store.link_capacity("a") == 100.0
        assert store.link_capacity("b") == 200.0
        assert store.link_capacity("nope") == 0.0

    def test_virtual_replay_counter(self):
        store = TimeSeriesStore()
        store.feed(flow_started(1.0, 1))
        store.feed(flow_started(0.5, 2))  # timestamp in the past
        assert store.get("net.virtual_replays").last_value == 1.0
        assert store.max_t == 1.0

    def test_queue_pool_replica_series(self):
        store = TimeSeriesStore()
        store.feed(StageQueueDepth(t=0.0, stage="det", depth=3))
        store.feed(PoolAlloc(t=0.2, device_id="n0.g0", size=10.0,
                             reserved=100.0, in_use=60.0, grew=False))
        store.feed(ReplicaOutstanding(t=0.3, replica="det#0",
                                      device_id="n0.g0", outstanding=2))
        assert store.get("queue.depth.det").last_value == 3.0
        assert store.get("pool.in_use.n0.g0").last_value == 60.0
        assert store.get("pool.reserved.n0.g0").last_value == 100.0
        assert store.get("replica.outstanding.det#0").last_value == 2.0

    def test_names_prefix(self):
        store = TimeSeriesStore()
        store.feed(StageQueueDepth(t=0.0, stage="a", depth=1))
        store.feed(StageQueueDepth(t=0.0, stage="b", depth=1))
        assert store.names("queue.depth.") == [
            "queue.depth.a", "queue.depth.b"
        ]

    def test_bus_attach_detach(self):
        bus = EventBus()
        store = TimeSeriesStore().attach(bus)
        bus.publish(StageQueueDepth(t=0.0, stage="s", depth=5))
        assert store.get("queue.depth.s").last_value == 5.0
        store.detach()
        bus.publish(StageQueueDepth(t=1.0, stage="s", depth=9))
        assert store.get("queue.depth.s").last_value == 5.0

    def test_live_and_feed_paths_match(self):
        events = [
            flow_started(0.0, 1),
            reallocated(0.0, 1, (1,), (75.0,)),
            StageQueueDepth(t=0.5, stage="s", depth=2),
            flow_finished(1.0, 1),
        ]
        bus = EventBus()
        live = TimeSeriesStore().attach(bus)
        for event in events:
            bus.publish(event)
        live.detach()
        replayed = TimeSeriesStore()
        for event in events:
            replayed.feed(event)
        assert live.names() == replayed.names()
        for name in live.names():
            assert list(live.series[name].times) == \
                list(replayed.series[name].times)
            assert list(live.series[name].values) == \
                list(replayed.series[name].values)
