"""Tests for the request state machine and egress accounting."""

import pytest

from repro.common.errors import SimulationError
from repro.dataplane import make_plane
from repro.platform import (
    RequestLifecycle,
    RequestState,
    ServerlessPlatform,
)
from repro.sim import Environment
from repro.topology import make_cluster
from repro.workflow import get_workload


def make_platform(**kwargs):
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane("grouter", env, cluster)
    return ServerlessPlatform(env, cluster, plane, **kwargs)


def run_one(platform, workload_name="driving"):
    deployment = platform.deploy(get_workload(workload_name))
    proc = platform.submit(deployment)
    platform.env.run()
    return proc.value


class TestStateMachine:
    def test_happy_path(self):
        env = Environment()
        lc = RequestLifecycle(env, "req-1", "wf")
        assert lc.state is RequestState.ARRIVED
        lc.begin_egress()
        assert lc.state is RequestState.EGRESS
        result = lc.finish()
        assert lc.state is RequestState.FINISHED
        assert result.request_id == "req-1"

    def test_illegal_transitions_raise(self):
        env = Environment()
        lc = RequestLifecycle(env, "req-1", "wf")
        with pytest.raises(SimulationError):
            lc.finish()  # cannot finish before egress
        lc.begin_egress()
        with pytest.raises(SimulationError):
            lc.begin_egress()  # double egress
        lc.finish()
        with pytest.raises(SimulationError):
            lc.begin_egress()  # terminal state

    def test_stage_records_accumulate(self):
        env = Environment()
        lc = RequestLifecycle(env, "req-1", "wf")
        record = lc.begin_stage("a")
        record.compute_time = 1.5
        lc.skip_stage("b")
        assert lc.result.stage_records["a"].compute_time == 1.5
        assert lc.result.skipped_stages == ["b"]


class TestEgressAccounting:
    def test_egress_recorded_separately_from_put(self):
        """Satellite regression: the final drain to host is egress, not
        the exit stage's put."""
        platform = make_platform()
        result = run_one(platform)
        assert result.egress_time > 0
        exit_stage = list(result.stage_records)[-1]
        record = result.stage_records[exit_stage]
        assert record.egress_time > 0
        # put_time now covers only the stage's own output publish.
        assert record.put_time < record.put_time + record.egress_time

    def test_egress_only_on_exit_stages(self):
        platform = make_platform()
        result = run_one(platform, "traffic")
        workflow = get_workload("traffic").workflow
        exit_names = {s.name for s in workflow.exit_stages}
        for name, record in result.stage_records.items():
            if name not in exit_names:
                assert record.egress_time == 0.0

    def test_latency_includes_egress(self):
        platform = make_platform()
        result = run_one(platform)
        accounted = sum(
            r.queued_time + r.get_time + r.cold_start + r.compute_time
            + r.put_time + r.egress_time
            for r in result.stage_records.values()
        )
        assert accounted == pytest.approx(result.latency, rel=0.05)
        assert result.data_time == pytest.approx(
            sum(
                r.get_time + r.put_time + r.egress_time
                for r in result.stage_records.values()
            )
        )
