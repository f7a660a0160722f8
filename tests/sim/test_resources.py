"""Tests for Resource and Container."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Container, Environment, Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_one_serializes(self, env):
        resource = Resource(env, capacity=1)
        spans = []

        def user(tag, hold):
            req = resource.request()
            yield req
            start = env.now
            yield env.timeout(hold)
            resource.release(req)
            spans.append((tag, start, env.now))

        env.process(user("a", 2.0))
        env.process(user("b", 3.0))
        env.run()
        assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]

    def test_capacity_two_overlaps(self, env):
        resource = Resource(env, capacity=2)
        starts = []

        def user(hold):
            req = resource.request()
            yield req
            starts.append(env.now)
            yield env.timeout(hold)
            resource.release(req)

        for _ in range(3):
            env.process(user(4.0))
        env.run()
        assert starts == [0.0, 0.0, 4.0]

    def test_waiters_granted_in_arrival_order(self, env):
        resource = Resource(env, capacity=1)
        grants = []

        def holder():
            req = resource.request()
            yield req
            yield env.timeout(1.0)
            resource.release(req)

        def waiter(tag, arrive):
            # Arrive while the holder owns the slot.
            yield env.timeout(arrive)
            req = resource.request()
            yield req
            grants.append((tag, env.now))
            yield env.timeout(0.5)
            resource.release(req)

        env.process(holder())
        # b and c arrive at the same instant; b was scheduled first.
        for tag, arrive in (("b", 0.5), ("c", 0.5), ("d", 0.75), ("e", 0.25)):
            env.process(waiter(tag, arrive))
        env.run()
        assert grants == [("e", 1.0), ("b", 1.5), ("c", 2.0), ("d", 2.5)]

    def test_invalid_capacity(self, env):
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_release_foreign_request_raises(self, env):
        r1, r2 = Resource(env), Resource(env)
        req = r1.request()
        with pytest.raises(SimulationError):
            r2.release(req)


class TestContainer:
    def test_get_available_amount_is_immediate(self, env):
        tank = Container(env, capacity=100.0, init=50.0)
        got = []

        def proc():
            yield tank.get(30.0)
            got.append(env.now)

        env.process(proc())
        env.run()
        assert got == [0.0]
        assert tank.level == 20.0

    def test_get_blocks_until_put(self, env):
        tank = Container(env, capacity=100.0, init=0.0)
        got = []

        def getter():
            yield tank.get(40.0)
            got.append(env.now)

        def putter():
            yield env.timeout(1.0)
            tank.put(25.0)
            yield env.timeout(1.0)
            tank.put(25.0)

        env.process(getter())
        env.process(putter())
        env.run()
        assert got == [2.0]

    def test_put_clamps_at_capacity(self, env):
        tank = Container(env, capacity=10.0, init=5.0)
        tank.put(100.0)
        assert tank.level == 10.0

    def test_get_over_capacity_raises(self, env):
        tank = Container(env, capacity=10.0)
        with pytest.raises(SimulationError):
            tank.get(11.0)

    def test_fifo_head_of_line(self, env):
        tank = Container(env, capacity=100.0, init=0.0)
        order = []

        def getter(tag, amount):
            yield tank.get(amount)
            order.append(tag)

        env.process(getter("big", 50.0))
        env.process(getter("small", 1.0))
        env.schedule(1.0, lambda: tank.put(50.0))
        env.schedule(2.0, lambda: tank.put(1.0))
        env.run()
        # FIFO: the big head-of-line request is served first even though
        # the small one could have been satisfied earlier.
        assert order == ["big", "small"]

    def test_invalid_init(self, env):
        with pytest.raises(SimulationError):
            Container(env, capacity=5.0, init=10.0)

    def test_queue_len_counts_waiters(self, env):
        tank = Container(env, capacity=100.0, init=10.0)
        assert tank.queue_len == 0
        tank.get(5.0)
        assert tank.queue_len == 0
        tank.get(50.0)
        tank.get(1.0)  # FIFO: queued behind the blocked head
        assert tank.queue_len == 2
        tank.put(60.0)
        assert tank.queue_len == 0

    def test_on_blocked_fires_before_service(self, env):
        # A lazy holder (the transfer engine's macro-flow claim) gets a
        # chance to reconcile before the head-of-line request settles.
        tank = Container(env, capacity=100.0, init=20.0)
        calls = []

        def reconcile(container):
            calls.append(container.level)
            container.put(30.0)  # release the virtual claim

        tank.on_blocked = reconcile
        served = []

        def getter():
            yield tank.get(50.0)
            served.append(env.now)

        env.process(getter())
        env.run()
        assert calls == [20.0]
        assert served == [0.0]  # unblocked immediately by the refund
        assert tank.level == 0.0

    def test_on_blocked_not_called_when_level_suffices(self, env):
        tank = Container(env, capacity=100.0, init=50.0)
        calls = []
        tank.on_blocked = lambda c: calls.append(c.level)

        def getter():
            yield tank.get(30.0)

        env.process(getter())
        env.run()
        assert calls == []

    def test_on_blocked_fires_for_queued_follower(self, env):
        # The hook keys on the *head of line*: a follower behind an
        # unserveable head triggers it too, since FIFO blocks them both.
        tank = Container(env, capacity=100.0, init=0.0)
        calls = []
        tank.on_blocked = lambda c: calls.append(len(calls))
        tank.get(60.0)
        tank.get(1.0)
        assert len(calls) == 2
