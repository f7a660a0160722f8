"""Tests for fluid-flow bandwidth sharing."""

import pytest

from repro.common.errors import SimulationError
from repro.common.units import GB, MB
from repro.net import FlowNetwork, Link, LinkKind
from repro.sim import Environment


def make_link(link_id="l0", src="a", dst="b", capacity=100.0, kind=LinkKind.NVLINK):
    return Link(link_id=link_id, src=src, dst=dst, capacity=capacity, kind=kind)


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return FlowNetwork(env)


class TestSingleFlow:
    def test_full_capacity_when_alone(self, env, net):
        link = make_link(capacity=100.0)
        flow = net.start_flow([link], size=1000.0)
        assert flow.rate == pytest.approx(100.0)
        env.run()
        stats = flow.done.value
        assert stats.finished_at == pytest.approx(10.0)

    def test_rate_cap_limits_rate(self, env, net):
        link = make_link(capacity=100.0)
        flow = net.start_flow([link], size=1000.0, rate_cap=25.0)
        assert flow.rate == pytest.approx(25.0)
        env.run()
        assert flow.done.value.finished_at == pytest.approx(40.0)

    def test_multihop_bottleneck(self, env, net):
        fast = make_link("fast", "a", "b", capacity=100.0)
        slow = make_link("slow", "b", "c", capacity=10.0)
        flow = net.start_flow([fast, slow], size=100.0)
        assert flow.rate == pytest.approx(10.0)
        env.run()
        assert flow.done.value.finished_at == pytest.approx(10.0)

    def test_invalid_flow_args(self, env, net):
        link = make_link()
        with pytest.raises(SimulationError):
            net.start_flow([], size=10.0)
        with pytest.raises(SimulationError):
            net.start_flow([link], size=0.0)
        with pytest.raises(SimulationError):
            net.start_flow([link], size=10.0, min_rate=-1.0)


class TestFairSharing:
    def test_two_flows_split_evenly(self, env, net):
        link = make_link(capacity=100.0)
        f1 = net.start_flow([link], size=500.0)
        f2 = net.start_flow([link], size=500.0)
        assert f1.rate == pytest.approx(50.0)
        assert f2.rate == pytest.approx(50.0)
        env.run()
        assert f1.done.value.finished_at == pytest.approx(10.0)
        assert f2.done.value.finished_at == pytest.approx(10.0)

    def test_departure_releases_bandwidth(self, env, net):
        link = make_link(capacity=100.0)
        short = net.start_flow([link], size=100.0)  # done at t=2 (shared)
        long = net.start_flow([link], size=500.0)
        env.run()
        # Shared until t=2: each moves 100 bytes. short finishes at 2.0;
        # long then gets full capacity: 400 remaining / 100 = 4s more.
        assert short.done.value.finished_at == pytest.approx(2.0)
        assert long.done.value.finished_at == pytest.approx(6.0)

    def test_late_arrival_preempts_bandwidth(self, env, net):
        link = make_link(capacity=100.0)
        first = net.start_flow([link], size=1000.0)

        result = {}

        def later():
            yield env.timeout(5.0)
            second = net.start_flow([link], size=250.0)
            yield second.done
            result["second_done"] = env.now

        env.process(later())
        env.run()
        # First runs alone 0-5 (500 bytes), then shares 50/50.
        # Second: 250 bytes at 50 B/s -> done at t=10.
        assert result["second_done"] == pytest.approx(10.0)
        # First: 500 left; 250 moved while sharing (5-10); then alone.
        assert first.done.value.finished_at == pytest.approx(12.5)

    def test_maxmin_uneven_paths(self, env, net):
        # Flow A crosses l1 only; flow B crosses l1+l2 where l2 is narrow.
        l1 = make_link("l1", "a", "b", capacity=100.0)
        l2 = make_link("l2", "b", "c", capacity=20.0)
        flow_b = net.start_flow([l1, l2], size=1000.0)
        flow_a = net.start_flow([l1], size=1000.0)
        # B is pinned to 20 by l2; A picks up the rest of l1.
        assert flow_b.rate == pytest.approx(20.0)
        assert flow_a.rate == pytest.approx(80.0)

    def test_three_way_share(self, env, net):
        link = make_link(capacity=90.0)
        flows = [net.start_flow([link], size=900.0) for _ in range(3)]
        for flow in flows:
            assert flow.rate == pytest.approx(30.0)


class TestReservations:
    def test_min_rate_reserved_under_contention(self, env, net):
        link = make_link(capacity=100.0)
        vip = net.start_flow([link], size=1000.0, min_rate=80.0)
        best_effort = net.start_flow([link], size=1000.0)
        # VIP holds >= 80; the rest is split max-min (VIP can also grow).
        assert vip.rate >= 80.0 - 1e-6
        assert vip.rate + best_effort.rate == pytest.approx(100.0)

    def test_oversubscribed_reservations_admit_in_order(self, env, net):
        # Admission-order isolation: the earlier reservation keeps its
        # full guarantee, the later one gets what is left.
        link = make_link(capacity=100.0)
        f1 = net.start_flow([link], size=1000.0, min_rate=80.0)
        f2 = net.start_flow([link], size=1000.0, min_rate=80.0)
        assert f1.rate == pytest.approx(80.0)
        assert f2.rate == pytest.approx(20.0)
        assert f1.rate + f2.rate == pytest.approx(100.0)

    def test_slo_gated_gives_residual_to_tightest(self, env):
        net = FlowNetwork(env, policy="slo_gated")
        link = make_link(capacity=100.0)
        loose = net.start_flow(
            [link], size=1000.0, min_rate=10.0, slo_deadline=50.0
        )
        tight = net.start_flow(
            [link], size=1000.0, min_rate=10.0, slo_deadline=5.0
        )
        # Both keep reservations; all residual goes to the tight flow.
        assert tight.rate == pytest.approx(90.0)
        assert loose.rate == pytest.approx(10.0)

    def test_slo_gated_no_deadline_is_lowest_priority(self, env):
        net = FlowNetwork(env, policy="slo_gated")
        link = make_link(capacity=100.0)
        nodeadline = net.start_flow([link], size=1000.0)
        deadline = net.start_flow([link], size=1000.0, slo_deadline=9.0)
        assert deadline.rate == pytest.approx(100.0)
        assert nodeadline.rate == pytest.approx(0.0)

    def test_unknown_policy_raises(self, env):
        with pytest.raises(SimulationError):
            FlowNetwork(env, policy="bogus")


class TestCancellation:
    def test_cancel_fails_done_event(self, env, net):
        link = make_link(capacity=100.0)
        flow = net.start_flow([link], size=1000.0)
        caught = []

        def watcher():
            try:
                yield flow.done
            except SimulationError:
                caught.append(env.now)

        env.process(watcher())
        env.schedule(1.0, lambda: net.cancel_flow(flow))
        env.run()
        assert caught == [1.0]

    def test_cancel_releases_bandwidth(self, env, net):
        link = make_link(capacity=100.0)
        doomed = net.start_flow([link], size=1000.0)
        survivor = net.start_flow([link], size=100.0)

        def killer():
            yield env.timeout(0.5)
            net.cancel_flow(doomed)
            yield env.timeout(0.0)
            assert survivor.rate == pytest.approx(100.0)

        proc = env.process(killer())

        def guard():
            try:
                yield doomed.done
            except SimulationError:
                pass

        env.process(guard())
        env.run()
        assert proc.ok
        # Survivor: 0.5s at 50 B/s (25 bytes) + 75 bytes at 100 B/s.
        assert survivor.done.value.finished_at == pytest.approx(1.25)

    def test_cancel_unknown_flow_raises(self, env, net):
        link = make_link(capacity=100.0)
        flow = net.start_flow([link], size=10.0)
        env.run()
        with pytest.raises(SimulationError):
            net.cancel_flow(flow)


class TestAccounting:
    def test_bytes_carried(self, env, net):
        link = make_link(capacity=100.0)
        net.start_flow([link], size=250.0)
        env.run()
        assert net.bytes_carried(link) == pytest.approx(250.0)

    def test_residual_and_allocated(self, env, net):
        link = make_link(capacity=100.0)
        net.start_flow([link], size=1e6, rate_cap=30.0)
        assert net.allocated_on(link) == pytest.approx(30.0)
        assert net.residual_on(link) == pytest.approx(70.0)

    def test_flow_count_on_unregistered_link_is_zero(self, net):
        assert net.flow_count_on(make_link("fresh")) == 0

    def test_duplicate_link_id_rejected(self, env, net):
        net.add_link(make_link("same"))
        with pytest.raises(SimulationError):
            net.add_link(make_link("same", capacity=5.0))

    def test_realistic_units(self, env, net):
        # 1 GB over a 25 GB/s NVLink takes 40 ms.
        link = make_link(capacity=25 * GB)
        flow = net.start_flow([link], size=1 * GB)
        env.run()
        assert flow.done.value.duration == pytest.approx(0.04)

    def test_many_flows_converge(self, env, net):
        link = make_link(capacity=10 * MB)
        flows = [net.start_flow([link], size=1 * MB) for _ in range(10)]
        env.run()
        for flow in flows:
            assert flow.done.value.finished_at == pytest.approx(1.0)
