"""Tests for the link-utilization monitor."""

import pytest

from repro.common.errors import ConfigError
from repro.net import FlowNetwork, Link, LinkKind, LinkUtilizationMonitor
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_link(capacity=100.0):
    return Link("l", "a", "b", capacity=capacity, kind=LinkKind.PCIE)


class TestMonitor:
    def test_validation(self, env):
        net = FlowNetwork(env)
        with pytest.raises(ConfigError):
            LinkUtilizationMonitor(env, net, [], interval=0.1)
        with pytest.raises(ConfigError):
            LinkUtilizationMonitor(env, net, [make_link()], interval=0.0)

    def test_samples_utilization(self, env):
        net = FlowNetwork(env)
        link = make_link(capacity=100.0)
        monitor = LinkUtilizationMonitor(
            env, net, [link], interval=0.1, horizon=2.0
        )
        monitor.start()
        net.start_flow([link], size=100.0, rate_cap=50.0)  # busy 0..2s @50%
        env.run()
        timeline = monitor.timelines[link.link_id]
        assert len(timeline) >= 10
        assert monitor.peak(link) == pytest.approx(0.5)
        # Utilization drops to 0 after the flow drains at t=2... horizon
        # stops sampling first, so the mean stays near 0.5.
        assert monitor.mean(link) == pytest.approx(0.5, rel=0.2)

    def test_horizon_stops_sampling(self, env):
        net = FlowNetwork(env)
        link = make_link()
        monitor = LinkUtilizationMonitor(
            env, net, [link], interval=0.1, horizon=1.0
        )
        monitor.start()
        env.run()
        assert env.now <= 1.2  # queue drained shortly after horizon

    def test_busiest_link(self, env):
        net = FlowNetwork(env)
        busy = Link("busy", "a", "b", capacity=100.0, kind=LinkKind.PCIE)
        idle = Link("idle", "a", "c", capacity=100.0, kind=LinkKind.PCIE)
        monitor = LinkUtilizationMonitor(
            env, net, [busy, idle], interval=0.1, horizon=1.0
        )
        monitor.start()
        net.start_flow([busy], size=1000.0)
        env.run()
        top, mean = monitor.busiest()
        assert top.link_id == "busy"
        assert mean > 0.5

    def test_stop_is_idempotent(self, env):
        net = FlowNetwork(env)
        monitor = LinkUtilizationMonitor(
            env, net, [make_link()], interval=0.1, horizon=0.5
        )
        monitor.start()
        monitor.start()
        monitor.stop()
        monitor.stop()
        env.run()

    def test_stop_without_horizon_lets_queue_drain(self, env):
        # Regression: stop() used to only flip _running, leaving the
        # pending timeout queued — env.run() without `until` then
        # waited out (or never left) the sampling loop.
        net = FlowNetwork(env)
        link = make_link()
        monitor = LinkUtilizationMonitor(env, net, [link], interval=0.1)
        monitor.start()
        net.start_flow([link], size=100.0)  # drains at t=1.0
        env.run(until=1.0)
        monitor.stop()
        samples_at_stop = len(monitor.timelines[link.link_id])
        env.run()  # must terminate: the sampling process is dead
        # At most the one already-queued (now inert) tick remains.
        assert env.now <= 1.0 + monitor.interval
        assert len(monitor.timelines[link.link_id]) == samples_at_stop

    def test_restart_after_stop(self, env):
        net = FlowNetwork(env)
        link = make_link()
        monitor = LinkUtilizationMonitor(env, net, [link], interval=0.1)
        monitor.start()
        env.run(until=0.5)
        monitor.stop()
        monitor.start()
        env.run(until=1.0)
        monitor.stop()
        env.run()
        assert len(monitor.timelines[link.link_id]) >= 10


class TestMonitorOnBus:
    def test_flow_edges_trigger_extra_samples(self, env):
        from repro.telemetry import EventBus

        env.telemetry = EventBus()
        net = FlowNetwork(env)
        link = make_link(capacity=100.0)
        monitor = LinkUtilizationMonitor(
            env, net, [link], interval=10.0, horizon=5.0
        )
        monitor.start()
        net.start_flow([link], size=100.0, rate_cap=50.0)  # busy 0..2s
        env.run()
        timeline = monitor.timelines[link.link_id]
        # The interval alone would sample only at t=0 (value 0, before
        # the flow); the flow's start/finish events add the transition
        # edges.  Same-instant samples collapse to the final value, so
        # t=0 records the post-start utilization, not a duplicate pair.
        assert len(timeline) >= 2
        assert timeline.value_at(0.0) == pytest.approx(0.5)
        assert monitor.peak(link) == pytest.approx(0.5)
        assert timeline.values[-1] == 0.0

    def test_stop_unsubscribes(self, env):
        from repro.telemetry import EventBus

        env.telemetry = EventBus()
        net = FlowNetwork(env)
        monitor = LinkUtilizationMonitor(
            env, net, [make_link()], interval=0.1
        )
        monitor.start()
        assert env.telemetry.subscriber_count == 2
        monitor.stop()
        assert env.telemetry.subscriber_count == 0

    def test_midrun_attach_with_macro_replay_does_not_double_count(self):
        # Regression: a monitor running while a telemetry session
        # attaches mid-run used to (a) never subscribe (bus checked only
        # at start()) and (b) once subscribed, record one sample per
        # virtual-timestamp batch event when a macro-flow split replayed
        # its elapsed history — dozens of duplicate same-instant samples
        # that skewed the sample-weighted mean.  Edge resampling keeps
        # exactly one sample per observed instant.
        from repro.common.units import GB, MB
        from repro.net import Path, TransferEngine
        from repro.telemetry.session import TelemetrySession

        env = Environment()
        net = FlowNetwork(env)
        engine = TransferEngine(env, net, chunk_size=2 * MB, batch_chunks=5,
                                batch_setup=20e-6, mode="coalesced")
        mlink = Link("mlink", "m", "host", capacity=1 * GB,
                     kind=LinkKind.PCIE)
        other = Link("other", "g0", "host", capacity=4 * GB,
                     kind=LinkKind.PCIE)
        monitor = LinkUtilizationMonitor(env, net, [mlink], interval=0.005,
                                         horizon=0.1)
        monitor.start()

        attach_at = 0.01
        session = TelemetrySession()

        def transferrer():
            # Coalesced macro on the watched link: many virtual batches
            # elapse before the session attaches, and all of them replay
            # through the bus when the macro resolves.
            yield engine.transfer([Path((mlink,))], 64 * MB, tag="macro")

        def attacher():
            yield env.timeout(attach_at)
            session.attach(env)
            flow = net.start_flow([other], 12 * MB)
            yield flow.done

        env.process(transferrer())
        env.process(attacher())
        env.run()
        # The mid-run attach engaged the bus consumer via the periodic
        # tick (start() ran before any bus existed).
        assert monitor._subscribed
        monitor.stop()
        env.run()

        # The hazard actually occurred: the macro replayed a burst of
        # virtual-timestamp batch events on the watched link, all
        # delivered at one real env.now.
        virtual = [
            event for _run, event in session.events
            if type(event).__name__ == "FlowStarted"
            and "mlink" in event.links and event.t < attach_at
        ]
        assert len(virtual) > 1
        # One sample per instant: strictly increasing timestamps, no
        # duplicate same-instant samples skewing the weighted mean.
        timeline = monitor.timelines["mlink"]
        assert len(timeline) >= 2
        assert list(timeline.times) == sorted(set(timeline.times))
