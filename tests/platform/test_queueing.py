"""Tests for the pending-request index and per-stage queues."""

import pytest

from repro.common.errors import SchedulingError
from repro.platform import build_platform
from repro.platform.queueing import PendingQueue, StageQueue
from repro.sim import Environment
from repro.traces import make_trace
from repro.workflow import get_workload


class TestPendingQueuePositions:
    def test_fifo_positions(self):
        q = PendingQueue()
        for i in range(5):
            q.enqueue(f"req-{i}")
            q.bind_object(f"obj-{i}", f"req-{i}")
        assert [q.position_of(f"obj-{i}") for i in range(5)] == [0, 1, 2, 3, 4]
        assert q.depth == 5

    def test_positions_shift_when_head_finishes(self):
        q = PendingQueue()
        for i in range(4):
            q.enqueue(f"req-{i}")
            q.bind_object(f"obj-{i}", f"req-{i}")
        q.finish("req-0")
        assert q.position_of("obj-0") is None
        assert [q.position_of(f"obj-{i}") for i in (1, 2, 3)] == [0, 1, 2]

    def test_out_of_order_finish(self):
        q = PendingQueue()
        for i in range(6):
            q.enqueue(f"req-{i}")
            q.bind_object(f"obj-{i}", f"req-{i}")
        q.finish("req-2")
        q.finish("req-4")
        assert q.position_of("obj-0") == 0
        assert q.position_of("obj-1") == 1
        assert q.position_of("obj-3") == 2
        assert q.position_of("obj-5") == 3
        assert q.depth == 4

    def test_unknown_and_finished_objects_are_none(self):
        q = PendingQueue()
        q.enqueue("req-0")
        q.bind_object("obj-0", "req-0")
        assert q.position_of("never-bound") is None
        q.finish("req-0")
        assert q.position_of("obj-0") is None

    def test_finish_unknown_request_is_noop(self):
        q = PendingQueue()
        q.enqueue("req-0")
        q.finish("no-such-request")
        assert q.depth == 1

    def test_compaction_preserves_arrival_order(self):
        q = PendingQueue()
        # Enough churn to force several rebuilds (capacity starts at 64
        # and dead slots trigger compaction once they outnumber alive).
        for i in range(500):
            q.enqueue(f"req-{i}")
            if i >= 10:
                q.finish(f"req-{i - 10}")
        assert q.counters["compactions"] > 0
        survivors = [f"req-{i}" for i in range(490, 500)]
        for rank, request_id in enumerate(survivors):
            q.bind_object(f"probe-{request_id}", request_id)
            assert q.position_of(f"probe-{request_id}") == rank

    def test_interleaved_positions_after_compaction(self):
        q = PendingQueue()
        for i in range(200):
            q.enqueue(f"req-{i}")
        # Finish every even request: odd ones keep relative order.
        for i in range(0, 200, 2):
            q.finish(f"req-{i}")
        odds = [f"req-{i}" for i in range(1, 200, 2)]
        for rank, request_id in enumerate(odds):
            q.bind_object(f"probe-{request_id}", request_id)
            assert q.position_of(f"probe-{request_id}") == rank


class TestPendingQueueBindingLeak:
    def test_finish_evicts_bindings(self):
        q = PendingQueue()
        q.enqueue("req-0")
        q.bind_object("a", "req-0")
        q.bind_object("b", "req-0")
        assert q.bound_objects == 2
        q.finish("req-0")
        assert q.bound_objects == 0

    def test_rebound_object_survives_old_owner_finish(self):
        # If a later request re-binds the same object id, finishing the
        # earlier owner must not evict the new binding.
        q = PendingQueue()
        q.enqueue("req-0")
        q.enqueue("req-1")
        q.bind_object("obj", "req-0")
        q.bind_object("obj", "req-1")
        q.finish("req-0")
        assert q.position_of("obj") == 0  # req-1 is now the head

    def test_no_binding_growth_over_trace_run(self):
        """Regression: the seed leaked one binding per Put forever."""
        platform = build_platform(plane_name="grouter")
        deployment = platform.deploy(get_workload("driving"))
        trace = make_trace("bursty", rate=4.0, duration=8.0, seed=0)
        results = platform.run_trace(deployment, trace)
        assert results
        assert platform.queue.depth == 0
        assert platform.queue.bound_objects == 0
        # Every stage entry on the request path was paired with a leave.
        assert deployment.stage_queues
        for stage_queue in deployment.stage_queues.values():
            assert stage_queue.depth == 0


class TestStageQueue:
    def test_unbounded_enter_is_immediate(self):
        env = Environment()
        q = StageQueue(env, "s")
        assert q.enter() is None
        assert q.enter() is None
        assert q.depth == 2
        q.leave()
        assert q.depth == 1

    def test_leave_without_enter_raises(self):
        env = Environment()
        q = StageQueue(env, "s")
        with pytest.raises(SchedulingError):
            q.leave()
