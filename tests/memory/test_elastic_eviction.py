"""Tests for elastic pool scaling and eviction policies."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import GB, MB
from repro.memory import (
    DeviceMemory,
    ElasticPoolManager,
    EvictionCandidate,
    FunctionHistogram,
    LruPolicy,
    MemoryPool,
    QueueAwarePolicy,
    make_policy,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestFunctionHistogram:
    def test_empty_histogram_defaults(self):
        hist = FunctionHistogram()
        assert hist.r_window == 0.0
        assert hist.r_size == 0.0
        assert hist.r_con == 1.0

    def test_interval_tracking(self):
        hist = FunctionHistogram()
        for t in (0.0, 1.0, 2.0, 3.0):
            hist.observe_arrival(t)
        assert hist.r_window == pytest.approx(1.0)

    def test_p99_captures_tail(self):
        hist = FunctionHistogram()
        now = 0.0
        hist.observe_arrival(now)
        # 99 intervals of 1s, one of 100s.
        for _ in range(99):
            now += 1.0
            hist.observe_arrival(now)
        now += 100.0
        hist.observe_arrival(now)
        assert hist.r_window > 1.0

    def test_put_updates_size_and_concurrency(self):
        hist = FunctionHistogram()
        hist.observe_put(10 * MB)
        hist.observe_put(20 * MB)
        assert hist.r_size == pytest.approx(
            19.9 * MB, rel=0.01
        )  # p99 of {10,20} MB
        assert hist.r_con == pytest.approx(1.99, rel=0.01)
        hist.observe_consume()
        hist.observe_put(20 * MB)
        assert hist._live_objects == 2

    def test_reservation_lapses_after_window(self):
        hist = FunctionHistogram()
        hist.observe_arrival(0.0)
        hist.observe_arrival(1.0)  # window ~= 1s
        hist.observe_put(100 * MB)
        assert hist.reservation(now=1.5) > 0
        assert hist.reservation(now=3.0) == 0.0

    def test_history_bounded(self):
        hist = FunctionHistogram(history=10)
        for i in range(100):
            hist.observe_put(float(i))
        assert len(hist.sizes) == 10

    @pytest.mark.parametrize("percentile", [-1.0, -1e-9, 100.5, 1e3,
                                            float("nan"), float("inf")])
    def test_percentile_outside_range_rejected(self, percentile):
        with pytest.raises(ConfigError):
            FunctionHistogram(percentile=percentile)

    @pytest.mark.parametrize("percentile", [0, 0.0, 50.0, 99, 100.0])
    def test_percentile_range_bounds_accepted(self, percentile):
        hist = FunctionHistogram(percentile=percentile)
        hist.observe_put(5.0)
        hist.observe_put(7.0)
        assert 5.0 <= hist.r_size <= 7.0


class TestElasticPoolManager:
    def test_target_includes_min_pool(self, env):
        device = DeviceMemory(env, "g", capacity=16 * GB)
        pool = MemoryPool(env, device)
        manager = ElasticPoolManager(env, pool, min_pool=300 * MB)
        assert manager.target_size() == 300 * MB

    def test_trim_loop_shrinks_idle_pool(self, env):
        device = DeviceMemory(env, "g", capacity=16 * GB)
        pool = MemoryPool(env, device)
        manager = ElasticPoolManager(
            env, pool, min_pool=100 * MB, check_interval=0.1
        )
        proc = pool.alloc(2 * GB)
        env.run()
        pool.free(proc.value)
        manager.start()
        env.run(until=1.0)
        manager.stop()
        env.run(until=2.0)
        assert pool.reserved == pytest.approx(100 * MB)

    def test_active_function_keeps_reservation(self, env):
        device = DeviceMemory(env, "g", capacity=16 * GB)
        pool = MemoryPool(env, device)
        manager = ElasticPoolManager(
            env, pool, min_pool=10 * MB, check_interval=0.1
        )
        # Steady arrivals every 1s with 500 MB outputs.
        for t in range(5):
            env.run(until=float(t))
            manager.notify_arrival("det")
            manager.notify_put("det", 500 * MB)
            manager.notify_consume("det")
        # Window still open just after an arrival.
        assert manager.target_size() >= 500 * MB

    @pytest.mark.parametrize("percentile", [-0.5, 101.0, float("nan")])
    def test_percentile_outside_range_rejected(self, env, percentile):
        device = DeviceMemory(env, "g", capacity=16 * GB)
        pool = MemoryPool(env, device)
        with pytest.raises(ConfigError):
            ElasticPoolManager(env, pool, percentile=percentile)

    def test_trim_check_rearms_when_the_trim_finishes(self, env):
        device = DeviceMemory(env, "g", capacity=16 * GB)
        pool = MemoryPool(env, device)
        manager = ElasticPoolManager(
            env, pool, min_pool=100 * MB, check_interval=0.25
        )
        proc = pool.alloc(2 * GB)
        env.run()
        pool.free(proc.value)
        # A 0.5 s pre-warm window for 500 MB, opened just before start.
        manager.notify_arrival("f")
        env.run(until=env.now + 0.5)
        manager.notify_arrival("f")
        manager.notify_put("f", 500 * MB)
        checks, trims_done = [], []
        target_size, trim = manager.target_size, pool.trim

        def spy_target():
            checks.append(env.now)
            return target_size()

        def spy_trim(target):
            process = trim(target)
            process.subscribe(lambda _event: trims_done.append(env.now))
            return process

        manager.target_size = spy_target
        pool.trim = spy_trim
        started = env.now
        manager.start()
        env.run()
        # First check trims to the open window's 500 MB and re-arms when
        # that trim finishes; the second finds the window shut, trims to
        # the floor, and the loop goes quiet.
        assert checks == [started + 0.25, trims_done[0] + 0.25]
        assert len(trims_done) == 2
        assert pool.reserved == pytest.approx(100 * MB)

    def test_notify_consume_reduces_concurrency(self, env):
        device = DeviceMemory(env, "g", capacity=16 * GB)
        pool = MemoryPool(env, device)
        manager = ElasticPoolManager(env, pool)
        manager.notify_put("f", 10 * MB)
        manager.notify_consume("f")
        assert manager.histogram("f")._live_objects == 0


def candidate(object_id, size=10.0, last_access=0.0, queue_position=None,
              pinned=False):
    return EvictionCandidate(
        object_id=object_id,
        size=size,
        last_access=last_access,
        queue_position=queue_position,
        pinned=pinned,
    )


class TestLruPolicy:
    def test_oldest_first(self):
        policy = LruPolicy()
        ranked = policy.rank(
            [candidate("new", last_access=5.0), candidate("old", last_access=1.0)]
        )
        assert [c.object_id for c in ranked] == ["old", "new"]

    def test_lru_ignores_queue(self):
        # The paper's Fig 11(b) failure: LRU evicts a1's output although
        # its consumer b1 runs next.
        policy = LruPolicy()
        a1 = candidate("a1-out", last_access=1.0, queue_position=0)
        a2 = candidate("a2-out", last_access=2.0, queue_position=3)
        victims = policy.select([a1, a2], needed=10.0)
        assert victims[0].object_id == "a1-out"

    def test_select_covers_needed_bytes(self):
        policy = LruPolicy()
        cands = [candidate(f"o{i}", size=10.0, last_access=i) for i in range(5)]
        victims = policy.select(cands, needed=25.0)
        assert [c.object_id for c in victims] == ["o0", "o1", "o2"]


class TestQueueAwarePolicy:
    def test_prefers_tail_of_queue(self):
        policy = QueueAwarePolicy()
        a1 = candidate("a1-out", last_access=1.0, queue_position=0)
        a2 = candidate("a2-out", last_access=2.0, queue_position=3)
        victims = policy.select([a1, a2], needed=10.0)
        assert victims[0].object_id == "a2-out"

    def test_unqueued_objects_go_first(self):
        policy = QueueAwarePolicy()
        queued = candidate("queued", queue_position=9)
        orphan = candidate("orphan", queue_position=None)
        ranked = policy.rank([queued, orphan])
        assert ranked[0].object_id == "orphan"

    def test_tie_broken_by_lru(self):
        policy = QueueAwarePolicy()
        a = candidate("a", last_access=2.0, queue_position=1)
        b = candidate("b", last_access=1.0, queue_position=1)
        ranked = policy.rank([a, b])
        assert ranked[0].object_id == "b"

    def test_pinned_never_selected(self):
        policy = QueueAwarePolicy()
        pinned = candidate("pinned", pinned=True)
        normal = candidate("normal")
        victims = policy.select([pinned, normal], needed=100.0)
        assert [c.object_id for c in victims] == ["normal"]

    def test_may_return_less_than_needed(self):
        policy = QueueAwarePolicy()
        victims = policy.select([candidate("only", size=5.0)], needed=100.0)
        assert len(victims) == 1


class TestPolicyFactory:
    def test_make_policy(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("queue-aware"), QueueAwarePolicy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("belady")
