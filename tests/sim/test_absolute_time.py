"""Absolute-time scheduling (``schedule_at``).

``now + (t - now)`` differs from ``t`` by an ulp whenever the
subtraction rounds — fatal for consumers that replay exact event-time
arithmetic, like the transfer engine's macro-flow splits.  These tests
pin the exact-instant guarantee and the past-time guard.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Environment


# A (start, target) pair where start + (target - start) != target in
# float64: relative delays cannot hit the instant exactly.
START = 0.0009899011959374497
TARGET = 0.0035060719285184417


def test_schedule_at_fires_at_exact_instant():
    env = Environment()
    seen = []

    def tick():
        yield env.timeout(START)
        env.schedule_at(TARGET, lambda: seen.append(env.now))
        yield env.timeout(1.0)

    env.process(tick())
    env.run()
    assert seen == [TARGET]


def test_schedule_at_cancel():
    env = Environment()
    seen = []
    handle = env.schedule_at(1.0, lambda: seen.append("fired"))
    handle.cancel()
    env.run()
    assert seen == []


def test_schedule_at_past_raises():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        with pytest.raises(SimulationError, match="in the past"):
            env.schedule_at(1.0, lambda: None)

    env.process(proc())
    env.run()


def test_schedule_at_orders_with_equal_time_fifo():
    env = Environment()
    order = []
    env.schedule_at(1.0, lambda: order.append("first"))
    env.schedule_at(1.0, lambda: order.append("second"))
    env.run()
    assert order == ["first", "second"]
