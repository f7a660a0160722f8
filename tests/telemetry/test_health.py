"""Tests for health snapshot assembly (repro.telemetry.health)."""

import pytest

from repro.telemetry.events import (
    FlowFinished,
    FlowsReallocated,
    FlowStarted,
    PlaneInfo,
    RequestArrived,
    RequestFinished,
    StageQueueDepth,
)
from repro.telemetry.health import (
    build_health,
    build_run_health,
    detect_queue_growth,
    detect_starved_flows,
    detect_utilization_collapse,
    fold_runs,
    format_dashboard,
    health_trace_events,
)
from repro.telemetry.slo import SloBoard, SloSpec
from repro.telemetry.timeseries import EntitySeries, TimeSeriesStore


def flow_started(t, flow_id, links=("l0",), capacities=(100.0,)):
    return FlowStarted(
        t=t, flow_id=flow_id, tag="f", size=50.0, links=tuple(links),
        src="a", dst="b", owner="", capacities=tuple(capacities),
    )


def reallocated(t, flow_id, rates, component=None):
    component = component if component is not None else (flow_id,)
    return FlowsReallocated(
        t=t, component=tuple(component), rates=tuple(rates),
    )


def flow_finished(t, flow_id):
    return FlowFinished(t=t, flow_id=flow_id)


def queue_series(values):
    series = EntitySeries("queue.depth.s", kind="queue")
    for i, value in enumerate(values):
        series.record(float(i), float(value))
    return series


class TestDetectors:
    def test_queue_growth_positive(self):
        series = queue_series(range(1, 11))  # 1..10, monotone, deep
        hit = detect_queue_growth(series)
        assert hit is not None
        assert hit["detector"] == "queue_monotone_growth"
        assert hit["entity"] == "queue.depth.s"

    def test_queue_that_drains_is_healthy(self):
        series = queue_series([1, 3, 5, 7, 9, 4, 6, 8, 10, 12])
        assert detect_queue_growth(series) is None

    def test_shallow_queue_is_healthy(self):
        series = queue_series([0, 0, 0, 1, 1, 1, 2, 2, 3])  # ends < 4
        assert detect_queue_growth(series) is None

    def test_too_few_samples_is_no_verdict(self):
        assert detect_queue_growth(queue_series([5, 6, 7])) is None

    # Simulated link ids contain dots, so the detector must strip the
    # series prefix rather than split on the last dot.
    @pytest.mark.parametrize("link", ["l0", "n0.g0>n0.sw0"])
    def test_collapse_positive(self, link):
        store = TimeSeriesStore()
        links = (link,)
        store.feed(flow_started(0.0, 1, links=links))
        store.feed(reallocated(0.0, 1, (80.0,)))   # util 0.8
        store.feed(reallocated(1.0, 1, (0.0,)))    # util 0.0
        hit = detect_utilization_collapse(
            store.get(f"link.util.{link}"), store
        )
        assert hit is not None
        assert hit["detector"] == "utilization_collapse"

    def test_collapse_after_finish_is_healthy(self):
        store = TimeSeriesStore()
        store.feed(flow_started(0.0, 1))
        store.feed(reallocated(0.0, 1, (80.0,)))
        store.feed(flow_finished(1.0, 1))  # util drops because work is done
        hit = detect_utilization_collapse(store.get("link.util.l0"), store)
        assert hit is None

    def test_starved_flow_positive(self):
        store = TimeSeriesStore()
        store.feed(flow_started(0.0, 1))
        store.feed(reallocated(0.0, 1, (0.0,)))
        store.feed(StageQueueDepth(t=5.0, stage="s", depth=0))
        (hit,) = detect_starved_flows(store)
        assert hit["detector"] == "starved_flow"
        assert hit["links"] == ["l0"]

    def test_young_or_flowing_flows_not_starved(self):
        store = TimeSeriesStore()
        store.feed(flow_started(0.0, 1))
        store.feed(reallocated(0.0, 1, (50.0,)))  # flowing
        store.feed(flow_started(4.9, 2))
        store.feed(reallocated(4.9, 2, (50.0, 0.0), component=(1, 2)))
        # flow 2 is rate-zero but only 0.1s old at max_t=5.0
        store.feed(StageQueueDepth(t=5.0, stage="s", depth=0))
        starved = detect_starved_flows(store)
        assert [hit["entity"] for hit in starved] == []


def request_events(latency):
    return [
        RequestArrived(t=0.0, request_id="r1", workflow="wf"),
        RequestFinished(t=latency, request_id="r1", workflow="wf",
                        latency=latency, slo_met=None),
    ]


SPECS = (
    SloSpec("latency", "latency", threshold=1.0, objective=0.9, window=5.0),
)


class TestBuildRunHealth:
    def test_healthy_run_all_ok(self):
        store = TimeSeriesStore()
        board = SloBoard(SPECS)
        for event in request_events(0.5):
            store.feed(event)
            board.feed(event)
        health = build_run_health(store, board, plane="grouter")
        assert health["verdict"] == "ok"
        assert health["episodes"] == 0
        assert health["attainment"]["latency"] == 1.0
        assert health["entities"]["plane.grouter"]["verdict"] == "ok"

    def test_slo_episode_marks_violated(self):
        store = TimeSeriesStore()
        board = SloBoard(SPECS)
        for event in request_events(2.0):  # blows the 1.0s latency SLO
            store.feed(event)
            board.feed(event)
        health = build_run_health(store, board, plane="p")
        assert health["verdict"] == "violated"
        assert health["episodes"] == 1
        assert health["entities"]["plane.p"]["verdict"] == "violated"

    def test_anomaly_marks_degraded(self):
        store = TimeSeriesStore()
        for i in range(10):
            store.feed(StageQueueDepth(t=float(i), stage="s",
                                       depth=i + 1))
        health = build_run_health(store, SloBoard(SPECS), plane="p")
        assert health["verdict"] == "degraded"
        assert health["entities"]["queue.depth.s"]["verdict"] == "degraded"
        assert health["anomalies"][0]["detector"] == "queue_monotone_growth"


class TestBuildHealth:
    def stream(self, latency=0.5):
        events = [PlaneInfo(t=0.0, plane="grouter")]
        events += request_events(latency)
        return [(0, event) for event in events]

    def test_multi_run_rollup(self):
        stream = self.stream() + [
            (1, event) for _, event in self.stream(latency=2.0)
        ]
        health = build_health(stream, SPECS)
        assert [run["run"] for run in health["runs"]] == [0, 1]
        assert health["runs"][0]["verdict"] == "ok"
        assert health["runs"][1]["verdict"] == "violated"
        assert health["overall"] == "violated"
        assert health["total_episodes"] == 1
        # Fleet attainment is the worst across runs.
        assert health["attainment"]["latency"] == 0.0

    def test_plane_labels_from_plane_info(self):
        health = build_health(self.stream(), SPECS)
        assert health["runs"][0]["plane"] == "grouter"

    def test_empty_stream(self):
        health = build_health([], SPECS)
        assert health == {"runs": [], "overall": "ok",
                          "total_episodes": 0, "attainment": {}}

    def test_state_reuse_matches_fresh_fold(self):
        stream = self.stream()
        state = fold_runs(stream, SPECS)
        via_state = build_health([], SPECS, state=state)
        fresh = build_health(stream, SPECS)
        assert via_state == fresh

    def test_deterministic_across_folds(self):
        stream = self.stream(latency=2.0)
        assert build_health(stream, SPECS) == build_health(stream, SPECS)


class TestPresentation:
    def test_dashboard_mentions_verdicts(self):
        health = build_health(
            [(0, event) for event in
             [PlaneInfo(t=0.0, plane="grouter")] + request_events(2.0)],
            SPECS,
        )
        text = format_dashboard(health)
        assert "overall: violated" in text
        assert "[!] grouter" in text
        assert "slo latency" in text
        assert "ttr=" in text

    def test_dashboard_healthy(self):
        health = build_health(
            [(0, event) for event in request_events(0.5)], SPECS
        )
        text = format_dashboard(health)
        assert "overall: ok" in text
        assert "entities ok" in text

    def test_trace_events_are_counters(self):
        _, boards, _ = fold_runs(
            [(0, event) for event in request_events(2.0)], SPECS
        )
        for board in boards.values():
            board.finalize(board.max_t)
        records = health_trace_events(boards)
        assert records
        assert all(record["ph"] == "C" for record in records)
        assert {record["name"] for record in records} == {"slo latency"}
        multi = health_trace_events(boards, multi_run=True)
        assert all(record["pid"].startswith("run0:") for record in multi)
