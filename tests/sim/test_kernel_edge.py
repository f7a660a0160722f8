"""Edge-case tests for kernel semantics under failure and partial runs."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestFailurePropagation:
    def test_all_of_failure_propagates(self, env):
        good = env.timeout(5.0)
        bad = env.event()
        caught = []

        def proc():
            try:
                yield env.all_of([good, bad])
            except KeyError:
                caught.append(env.now)

        env.process(proc())
        env.schedule(2.0, lambda: bad.fail(KeyError("y")))
        env.run()
        assert caught == [2.0]

    def test_fail_requires_exception_instance(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_schedule_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.schedule(-1.0, lambda: None)

    def test_nested_process_failure_chain(self, env):
        # level3 raises -> level2 doesn't catch -> level1 catches.
        def level3():
            yield env.timeout(1.0)
            raise RuntimeError("deep")

        def level2():
            yield env.process(level3())

        def level1():
            try:
                yield env.process(level2())
            except RuntimeError as error:
                caught.append(str(error))

        caught = []
        env.process(level1())
        env.run()
        assert caught == ["deep"]


class TestClockBoundaries:
    def test_run_until_exact_event_time_fires_it(self, env):
        fired = []

        def proc():
            yield env.timeout(5.0)
            fired.append(env.now)

        env.process(proc())
        env.run(until=5.0)
        assert fired == [5.0]
        assert env.now == 5.0

    def test_resume_after_partial_run(self, env):
        order = []

        def proc(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc("a", 1.0))
        env.process(proc("b", 3.0))
        env.run(until=2.0)
        assert order == ["a"]
        env.run()
        assert order == ["a", "b"]
