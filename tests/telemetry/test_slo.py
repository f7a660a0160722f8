"""Tests for rolling-window SLO evaluation (repro.telemetry.slo)."""

import pytest

from repro.common.errors import ConfigError
from repro.telemetry.events import (
    RequestArrived,
    RequestFinished,
    StageSpan,
)
from repro.telemetry.slo import SloBoard, SloSpec, SloTracker, default_specs


def spec(threshold=1.0, objective=0.9, window=2.0, kind="latency",
         name="lat"):
    return SloSpec(name, kind, threshold=threshold, objective=objective,
                   window=window)


class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SloSpec("x", "nope")
        with pytest.raises(ConfigError):
            SloSpec("x", "latency", objective=1.0)
        with pytest.raises(ConfigError):
            SloSpec("x", "latency", window=0.0)

    def test_default_specs_names(self):
        names = [s.name for s in default_specs()]
        assert names == ["latency", "ttft", "data_share"]


class TestSloTracker:
    def test_all_good_is_met(self):
        tracker = SloTracker(spec())
        for i in range(10):
            tracker.observe(float(i), 0.5)
        tracker.finalize(10.0)
        assert tracker.attainment == 1.0
        assert tracker.met
        assert tracker.episodes == []
        assert tracker.worst_burn == 0.0

    def test_empty_stream_is_compliant(self):
        tracker = SloTracker(spec())
        tracker.finalize(1.0)
        assert tracker.attainment == 1.0
        assert tracker.met
        assert tracker.burn_rate == 0.0

    def test_burn_rate_is_windowed_bad_over_budget(self):
        # objective 0.9 -> budget 0.1; one bad in two samples -> burn 5.
        tracker = SloTracker(spec(objective=0.9, window=10.0))
        tracker.observe(0.0, 0.5)   # good
        tracker.observe(1.0, 2.0)   # bad
        assert tracker.burn_rate == pytest.approx((1 / 2) / 0.1)

    def test_violation_opens_and_recovers(self):
        tracker = SloTracker(spec(objective=0.9, window=2.0))
        tracker.observe(0.0, 2.0)  # bad -> burn 10 -> episode opens
        assert len(tracker.episodes) == 1
        assert tracker.episodes[0].open
        # Good samples arrive; the bad one ages out of the window.
        for i in range(1, 6):
            tracker.observe(float(i), 0.5)
        tracker.finalize(6.0)
        (episode,) = tracker.episodes
        assert not episode.open
        assert episode.ttr is not None
        assert episode.ttr > 0.0

    def test_finalize_closes_open_episode_with_finite_ttr(self):
        tracker = SloTracker(spec(objective=0.9, window=100.0))
        tracker.observe(0.0, 2.0)  # bad, never recovers live
        tracker.finalize(3.0)
        (episode,) = tracker.episodes
        assert episode.end == 3.0
        assert episode.ttr == 3.0
        assert not tracker.met

    def test_finalize_is_idempotent(self):
        tracker = SloTracker(spec())
        tracker.observe(0.0, 2.0)
        tracker.finalize(1.0)
        tracker.finalize(5.0)
        assert tracker.episodes[-1].end == 1.0
        with pytest.raises(ConfigError):
            tracker.observe(2.0, 0.1)

    def test_report_shape(self):
        tracker = SloTracker(spec())
        tracker.observe(0.0, 0.5)
        tracker.finalize(1.0)
        report = tracker.report()
        for key in ("name", "kind", "threshold", "objective", "window",
                    "total", "good", "bad", "attainment", "worst_burn",
                    "met", "episodes"):
            assert key in report


def span(t, request_id, kind, start, end, stage="s"):
    return StageSpan(t=t, request_id=request_id, stage=stage, kind=kind,
                     start=start, end=end, device_id="n0.g0")


class TestSloBoard:
    def test_duplicate_spec_names_rejected(self):
        with pytest.raises(ConfigError):
            SloBoard([spec(name="a"), spec(name="a")])

    def test_latency_ttft_data_share_assembly(self):
        board = SloBoard(default_specs(
            latency_s=1.0, ttft_s=0.5, data_share_max=0.5,
            objective=0.9, window=10.0,
        ))
        board.feed(RequestArrived(t=0.0, request_id="r1", workflow="wf"))
        board.feed(span(0.4, "r1", "get", 0.1, 0.2))
        board.feed(span(0.4, "r1", "exec", 0.2, 0.4))
        board.feed(span(0.7, "r1", "put", 0.4, 0.5))
        board.feed(span(0.8, "r1", "egress", 0.7, 0.8))
        board.feed(RequestFinished(t=0.8, request_id="r1", workflow="wf",
                                   latency=0.8, slo_met=None))
        board.finalize()
        report = board.report()
        # latency 0.8 <= 1.0 good; ttft 0.4 <= 0.5 good;
        # data time = 0.1 + 0.1 + 0.1 = 0.3, share 0.375 <= 0.5 good.
        assert report["latency"]["good"] == 1
        assert report["ttft"]["good"] == 1
        assert report["data_share"]["good"] == 1
        assert board.met

    def test_data_share_violation(self):
        board = SloBoard(default_specs(
            latency_s=10.0, ttft_s=10.0, data_share_max=0.3,
            objective=0.9, window=10.0,
        ))
        board.feed(RequestArrived(t=0.0, request_id="r1", workflow="wf"))
        board.feed(span(0.9, "r1", "get", 0.0, 0.9))  # 90% data passing
        board.feed(RequestFinished(t=1.0, request_id="r1", workflow="wf",
                                   latency=1.0, slo_met=None))
        board.finalize()
        report = board.report()
        assert report["data_share"]["bad"] == 1
        assert len(report["data_share"]["episodes"]) == 1
        assert not board.met

    def test_pending_state_dropped_on_finish(self):
        board = SloBoard()
        board.feed(RequestArrived(t=0.0, request_id="r1", workflow="wf"))
        assert board._pending
        board.feed(RequestFinished(t=1.0, request_id="r1", workflow="wf",
                                   latency=1.0, slo_met=None))
        assert not board._pending

    def test_episode_count_property(self):
        board = SloBoard(default_specs(latency_s=0.1, objective=0.9,
                                       window=5.0))
        board.feed(RequestArrived(t=0.0, request_id="r1", workflow="wf"))
        board.feed(RequestFinished(t=1.0, request_id="r1", workflow="wf",
                                   latency=1.0, slo_met=None))
        board.finalize()
        assert board.episode_count >= 1
