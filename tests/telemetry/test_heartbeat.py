"""Run monitor: heartbeat cadence, RSS sampling, sink accounting."""

import io
import sys
import types

import pytest

from repro.telemetry import RunMonitor, current_rss_bytes, heartbeat


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class FakeSink:
    def __init__(self, backlog=0, events_handled=0, busy_s=None):
        self.backlog = backlog
        self.events_handled = events_handled
        if busy_s is not None:
            self.busy_s = busy_s


class FakeEnv:
    now = 42.5


def test_current_rss_is_positive_and_plausible():
    rss = current_rss_bytes()
    assert 1_000_000 < rss < 1 << 40  # >1MB, <1TB


@pytest.mark.parametrize("platform, scale", [("darwin", 1), ("linux", 1024)])
def test_current_rss_fallback_units(monkeypatch, platform, scale):
    # Without /proc the high-water mark comes from getrusage, whose
    # ru_maxrss is bytes on macOS and KiB on Linux.
    def no_proc(*_args, **_kwargs):
        raise OSError("no /proc")

    usage = types.SimpleNamespace(ru_maxrss=50_000)
    fake_resource = types.SimpleNamespace(
        RUSAGE_SELF=0, getrusage=lambda _who: usage,
    )
    monkeypatch.setattr(heartbeat, "open", no_proc, raising=False)
    monkeypatch.setitem(sys.modules, "resource", fake_resource)
    monkeypatch.setattr(sys, "platform", platform)
    assert current_rss_bytes() == 50_000 * scale


class TestHeartbeat:
    def test_tick_respects_interval(self):
        clock, out = FakeClock(), io.StringIO()
        monitor = RunMonitor(interval=5.0, stream=out, now=clock)
        monitor.tick(done=1)
        assert monitor.beats == 0  # interval not yet elapsed
        clock.t = 5.1
        monitor.tick(done=2)
        assert monitor.beats == 1
        clock.t = 7.0
        monitor.tick(done=3)
        assert monitor.beats == 1  # still inside the next interval

    def test_beat_line_contents(self):
        clock, out = FakeClock(), io.StringIO()
        monitor = RunMonitor(
            env=FakeEnv(), interval=1.0, label="endtoend",
            sinks=[FakeSink(backlog=7, events_handled=1234, busy_s=0.5)],
            stream=out, now=clock,
        )
        clock.t = 2.0
        monitor.tick(done=10)
        line = out.getvalue()
        assert "[hb endtoend]" in line
        assert "sim=42.5s" in line
        assert "done=10" in line
        assert "backlog=7" in line
        assert "spooled=1234" in line
        assert "sink=25%" in line  # 0.5 busy seconds of 2.0 wall

    def test_sink_without_busy_time_has_no_sink_field(self):
        clock, out = FakeClock(), io.StringIO()
        monitor = RunMonitor(interval=1.0, sinks=[FakeSink()],
                             stream=out, now=clock)
        clock.t = 2.0
        monitor.tick(done=1)
        assert "spooled=0" in out.getvalue()
        assert "sink=" not in out.getvalue()

    def test_disabled_interval_never_prints_but_samples_rss(self):
        clock, out = FakeClock(), io.StringIO()
        monitor = RunMonitor(interval=0.0, stream=out, now=clock)
        clock.t = 100.0
        monitor.tick(done=5)
        assert out.getvalue() == ""
        assert monitor.peak_rss_bytes > 0

    def test_rate_is_delta_based(self):
        clock, out = FakeClock(), io.StringIO()
        monitor = RunMonitor(interval=1.0, stream=out, now=clock)
        clock.t = 2.0
        monitor.tick(done=20)
        clock.t = 4.0
        monitor.tick(done=30)
        lines = out.getvalue().splitlines()
        assert "(+20 @ 10/s)" in lines[0]
        assert "(+10 @ 5/s)" in lines[1]

    def test_slo_board_appends_attainment_and_burn(self):
        from repro.telemetry.slo import SloBoard, SloSpec

        board = SloBoard([
            SloSpec("latency", "latency", threshold=1.0,
                    objective=0.9, window=10.0),
        ])
        tracker = board.trackers["latency"]
        tracker.observe(0.0, 0.5)  # good
        tracker.observe(1.0, 2.0)  # bad -> attainment 0.5, burn 5
        clock, out = FakeClock(), io.StringIO()
        monitor = RunMonitor(interval=1.0, stream=out, now=clock,
                             slo_board=board)
        clock.t = 2.0
        monitor.tick(done=2)
        line = out.getvalue()
        assert "slo=0.500" in line
        assert "burn=5.00" in line

    def test_no_slo_board_no_slo_field(self):
        clock, out = FakeClock(), io.StringIO()
        monitor = RunMonitor(interval=1.0, stream=out, now=clock)
        clock.t = 2.0
        monitor.tick(done=1)
        assert "slo=" not in out.getvalue()


class TestWrap:
    def test_wrap_chains_sink_and_counts(self):
        clock = FakeClock()
        monitor = RunMonitor(interval=0.0, now=clock)
        seen = []
        observe = monitor.wrap(seen.append)
        observe("r1")
        observe("r2")
        assert seen == ["r1", "r2"]
        assert monitor.done == 2

    def test_wrap_without_inner_sink(self):
        monitor = RunMonitor(interval=0.0, now=FakeClock())
        observe = monitor.wrap()
        observe(object())
        assert monitor.done == 1

    def test_peak_rss_monotonic(self):
        monitor = RunMonitor(interval=0.0, now=FakeClock())
        first = monitor.peak_rss_bytes
        monitor.sample_rss()
        assert monitor.peak_rss_bytes >= first
