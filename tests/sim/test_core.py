"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_run_until_advances_clock_past_empty_queue(self, env):
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_in_past_raises(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_step_empty_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestTimeout:
    def test_timeout_advances_time(self, env):
        log = []

        def proc():
            yield env.timeout(2.5)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [2.5]

    def test_negative_delay_raises(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_timeout_value(self, env):
        got = []

        def proc():
            value = yield env.timeout(1.0, value="hello")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["hello"]

    def test_sequential_timeouts_accumulate(self, env):
        times = []

        def proc():
            yield env.timeout(1.0)
            times.append(env.now)
            yield env.timeout(2.0)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.0, 3.0]

    def test_same_time_events_fire_in_scheduling_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        env.process(proc("a"))
        env.process(proc("b"))
        env.process(proc("c"))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_manual_succeed_wakes_waiter(self, env):
        evt = env.event()
        got = []

        def waiter():
            value = yield evt
            got.append((env.now, value))

        def trigger():
            yield env.timeout(3.0)
            evt.succeed(42)

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert got == [(3.0, 42)]

    def test_double_succeed_raises(self, env):
        evt = env.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_value_before_trigger_raises(self, env):
        evt = env.event()
        with pytest.raises(SimulationError):
            _ = evt.value

    def test_fail_propagates_into_process(self, env):
        evt = env.event()
        caught = []

        def waiter():
            try:
                yield evt
            except ValueError as error:
                caught.append(str(error))

        env.process(waiter())
        env.schedule(1.0, lambda: evt.fail(ValueError("boom")))
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failure_raises_from_run(self, env):
        evt = env.event()
        env.schedule(1.0, lambda: evt.fail(RuntimeError("unhandled")))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_subscribe_after_processed_still_fires(self, env):
        evt = env.event()
        evt.succeed("x")
        env.run()  # process the event
        got = []
        evt.subscribe(lambda e: got.append(e.value))
        env.run()
        assert got == ["x"]


class TestCombinators:
    def test_all_of_waits_for_all(self, env):
        done = []

        def proc():
            yield env.all_of([env.timeout(1.0), env.timeout(5.0), env.timeout(3.0)])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [5.0]

    def test_all_of_empty_is_immediate(self, env):
        done = []

        def proc():
            yield env.all_of([])
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_all_of_collects_values(self, env):
        got = []

        def proc():
            t1 = env.timeout(1.0, value="a")
            t2 = env.timeout(2.0, value="b")
            result = yield env.all_of([t1, t2])
            got.append(sorted(result.values()))

        env.process(proc())
        env.run()
        assert got == [["a", "b"]]


class TestProcess:
    def test_process_return_value(self, env):
        def inner():
            yield env.timeout(1.0)
            return "result"

        def outer():
            value = yield env.process(inner())
            results.append(value)

        results = []
        env.process(outer())
        env.run()
        assert results == ["result"]

    def test_process_exception_propagates_to_waiter(self, env):
        def inner():
            yield env.timeout(1.0)
            raise KeyError("inner failure")

        def outer():
            try:
                yield env.process(inner())
            except KeyError:
                caught.append(env.now)

        caught = []
        env.process(outer())
        env.run()
        assert caught == [1.0]

    def test_yield_non_event_raises_into_process(self, env):
        caught = []

        def bad():
            try:
                yield 42
            except SimulationError:
                caught.append(True)

        env.process(bad())
        env.run()
        assert caught == [True]

    def test_process_needs_generator(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_nested_processes_interleave(self, env):
        order = []

        def child(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        def parent():
            a = env.process(child("a", 2.0))
            b = env.process(child("b", 1.0))
            yield env.all_of([a, b])
            order.append("parent")

        env.process(parent())
        env.run()
        assert order == ["b", "a", "parent"]

    def test_run_until_stops_midway(self, env):
        log = []

        def proc():
            yield env.timeout(1.0)
            log.append("first")
            yield env.timeout(10.0)
            log.append("second")

        env.process(proc())
        env.run(until=5.0)
        assert log == ["first"]
        assert env.now == 5.0
        env.run()
        assert log == ["first", "second"]
