"""Component scoping behaviour of the incremental allocator.

These tests pin down the *mechanism*, not just end results: disjoint
components must not touch each other's completion timers, a new flow
must merge components, a cancel must split them, and exactly-unchanged
rates must elide the timer reschedule.  Timer identity is observed
through the ``Flow._timer`` ScheduledCall handles and the environment
heap counters; component membership through ``FlowsReallocated``
telemetry.
"""

import pytest

from repro.common.units import MB
from repro.net import FlowNetwork, Link, LinkKind
from repro.sim import Environment
from repro.telemetry import EventBus
from repro.telemetry.events import FlowsReallocated


def _link(link_id, src, dst, capacity=100 * MB):
    return Link(link_id=link_id, src=src, dst=dst,
                capacity=capacity, kind=LinkKind.PCIE)


def _capture_reallocs(env):
    env.telemetry = EventBus()
    events = []
    env.telemetry.subscribe(FlowsReallocated, events.append)
    return events


class TestDisjointComponents:
    def test_start_does_not_reschedule_other_component(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        la, lb = _link("a", "s0", "d0"), _link("b", "s1", "d1")
        events = _capture_reallocs(env)

        fa = net.start_flow([la], 10 * MB)
        timer_a = fa._timer
        assert timer_a is not None

        fb = net.start_flow([lb], 10 * MB)
        # fa's pending completion timer is untouched: the very same
        # ScheduledCall handle, not cancelled, and no stale heap entry.
        assert fa._timer is timer_a
        assert not timer_a.cancelled
        assert env.stale_entries == 0
        # The reallocation event for fb's start is scoped to fb alone.
        assert events[-1].trigger == "start"
        assert events[-1].component == (fb.flow_id,)
        assert events[-1].links == ("b",)
        assert fa.flow_id not in events[-1].rescheduled

    def test_finish_does_not_reschedule_other_component(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        la, lb = _link("a", "s0", "d0"), _link("b", "s1", "d1")
        fa = net.start_flow([la], 50 * MB)  # finishes at t=0.5
        fb = net.start_flow([lb], 10 * MB)  # finishes at t=0.1
        timer_a = fa._timer
        instant_a = fa._timer_at
        assert timer_a is not None
        env.run(until=0.2)
        assert fb.done.triggered
        # fb finishing emptied its own component; fa's timer survived.
        assert fa._timer is timer_a
        assert not timer_a.cancelled
        assert fa._timer_at == instant_a
        env.run()
        assert fa.done.value.finished_at == pytest.approx(0.5)

    def test_start_merges_components(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        la, lb = _link("a", "s0", "m"), _link("b", "m", "d1")
        events = _capture_reallocs(env)
        fa = net.start_flow([la], 10 * MB)
        fb = net.start_flow([lb], 10 * MB)
        # A two-hop flow crossing both links merges the components.
        fc = net.start_flow([la, lb], 10 * MB)
        assert events[-1].component == (fa.flow_id, fb.flow_id, fc.flow_id)
        assert set(events[-1].links) == {"a", "b"}


class TestCancelScoping:
    def test_cancel_shrinks_component(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        link = _link("a", "s", "d")
        events = _capture_reallocs(env)
        f1 = net.start_flow([link], 10 * MB)
        f2 = net.start_flow([link], 10 * MB)
        f3 = net.start_flow([link], 10 * MB)
        env.run(until=0.01)
        net.cancel_flow(f2)
        f2.done.defuse()
        cancel_events = [e for e in events if e.trigger == "cancel"]
        assert len(cancel_events) == 1
        assert cancel_events[0].flow_id == f2.flow_id
        # The post-cancel recompute only covers the survivors.
        assert cancel_events[0].component == (f1.flow_id, f3.flow_id)
        assert f2.flow_id not in net._flows

    def test_cancel_splits_component(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        la, lb = _link("a", "s0", "m"), _link("b", "m", "d1")
        events = _capture_reallocs(env)
        fa = net.start_flow([la], 100 * MB)
        fb = net.start_flow([lb], 100 * MB)
        bridge = net.start_flow([la, lb], 100 * MB)
        env.run(until=0.01)
        net.cancel_flow(bridge)
        bridge.done.defuse()
        # Removing the bridge splits {fa, fb}: the scoped pass emits
        # one recompute per surviving component.
        cancel_events = [e for e in events if e.trigger == "cancel"]
        assert [e.component for e in cancel_events] == [
            (fa.flow_id,), (fb.flow_id,)
        ]
        assert [e.links for e in cancel_events] == [("a",), ("b",)]

    def test_cancelled_flow_timer_is_stale_not_rearmed(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        link = _link("a", "s", "d")
        flow = net.start_flow([link], 10 * MB)
        timer = flow._timer
        assert timer is not None
        net.cancel_flow(flow)
        flow.done.defuse()
        assert flow._timer is None
        assert timer.cancelled
        assert env.stale_entries == 1
        env.run()  # the stale entry pops without firing
        assert env.stale_entries == 0


class TestTimerElision:
    def test_unchanged_rates_keep_their_timers(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        link = _link("a", "s", "d", capacity=100 * MB)
        # Capped flows leave 40 MB/s of residual headroom...
        f1 = net.start_flow([link], 10 * MB, rate_cap=30 * MB)
        f2 = net.start_flow([link], 10 * MB, rate_cap=30 * MB)
        t1, t2 = f1._timer, f2._timer
        elisions_before = net.timer_elisions
        events = _capture_reallocs(env)
        # ...so a newcomer capped at 40 MB/s changes nobody's rate.
        f3 = net.start_flow([link], 10 * MB, rate_cap=40 * MB)
        assert f1.rate == f2.rate == 30 * MB
        assert f3.rate == 40 * MB
        assert f1._timer is t1 and f2._timer is t2
        assert net.timer_elisions == elisions_before + 2
        assert events[-1].component == (f1.flow_id, f2.flow_id, f3.flow_id)
        assert events[-1].rescheduled == (f3.flow_id,)

    def test_rate_change_does_reschedule(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        link = _link("a", "s", "d", capacity=100 * MB)
        f1 = net.start_flow([link], 10 * MB)
        t1 = f1._timer
        f2 = net.start_flow([link], 10 * MB)  # halves f1's share
        assert f1.rate == f2.rate == 50 * MB
        assert f1._timer is not t1
        assert t1.cancelled

    def test_rate_change_moves_armed_instant(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        link = _link("a", "s", "d", capacity=100 * MB)
        f1 = net.start_flow([link], 10 * MB)
        instant = f1._timer_at
        f2 = net.start_flow([link], 10 * MB)  # halves f1's share
        assert f1.rate == f2.rate == 50 * MB
        # The re-armed timer tracks the rate change: 10 MB at 100 MB/s
        # then 50 MB/s finishes twice as late.
        assert f1._timer.when == f1._timer_at == 2 * instant


class TestLazyProgress:
    def test_out_of_component_flow_progresses_correctly(self):
        env = Environment()
        net = FlowNetwork(env, allocator="incremental")
        la, lb = _link("a", "s0", "d0"), _link("b", "s1", "d1")
        fa = net.start_flow([la], 100 * MB)  # 1s at full rate

        def churn():
            # Heavy churn on the other component while fa runs.
            for _ in range(20):
                flow = net.start_flow([lb], 1 * MB)
                yield flow.done

        env.process(churn())
        env.run()
        # fa's finish time is unaffected by the churn next door.
        assert fa.done.value.finished_at == pytest.approx(1.0)
        assert net.bytes_carried(la) == pytest.approx(100 * MB)
