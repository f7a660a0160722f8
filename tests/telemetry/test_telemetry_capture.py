"""End-to-end telemetry capture over real simulation runs."""

import pytest

from repro.dataplane import make_plane
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.telemetry import StandardMetrics, capture
from repro.telemetry.events import (
    FlowFinished,
    PlacementDecision,
    PoolAlloc,
    RequestFinished,
    StageSpan,
    StoreGet,
    StorePut,
    TransferFinished,
)
from repro.topology import make_cluster
from repro.workflow import get_workload


def run_workflow():
    """One full platform run; returns (env, request result)."""
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane("grouter", env, cluster)
    platform = ServerlessPlatform(env, cluster, plane)
    deployment = platform.deploy(get_workload("driving"))
    proc = platform.submit(deployment)
    env.run()
    assert proc.ok
    return env, proc.value


class TestTelemetryDisabled:
    def test_env_has_no_bus_by_default(self):
        env, _result = run_workflow()
        assert env.telemetry is None


class TestCapture:
    def test_capture_instruments_every_environment(self):
        with capture() as session:
            run_workflow()
            run_workflow()
        assert session.run_count == 2
        runs = {run for run, _event in session.events}
        assert runs == {0, 1}

    def test_platform_run_covers_all_subsystems(self):
        with capture() as session:
            _env, result = run_workflow()
        kinds = {type(event) for _run, event in session.events}
        assert FlowFinished in kinds          # net
        assert TransferFinished in kinds      # net
        assert StorePut in kinds              # storage
        assert StoreGet in kinds              # storage
        assert PoolAlloc in kinds             # memory
        assert PlacementDecision in kinds     # scheduler
        assert StageSpan in kinds
        finished = [
            event for _run, event in session.events
            if isinstance(event, RequestFinished)
        ]
        assert len(finished) == 1
        assert finished[0].request_id == result.request_id
        assert finished[0].latency == pytest.approx(result.latency)

    def test_standard_metrics_cover_four_namespaces(self):
        with capture() as session:
            run_workflow()
        summary = session.metrics.summary()
        for namespace in ("net", "storage", "memory", "scheduler"):
            assert namespace in summary
        assert summary["scheduler"]["requests_finished"]["value"] == 1
        assert summary["net"]["bytes_moved"]["value"] > 0
        assert summary["storage"]["puts"]["value"] > 0
        assert summary["memory"]["allocs"]["value"] > 0

    def test_hook_restored_after_block(self):
        with capture():
            pass
        assert Environment.telemetry_hook is None
        env, _result = run_workflow()
        assert env.telemetry is None

    def test_session_exports_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        with capture() as session:
            run_workflow()
        doc = session.export_chrome_trace(str(path))
        assert path.exists()
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            assert {"ph", "ts", "pid", "tid"} <= set(event)


class TestRecorderHelpers:
    def test_standard_metrics_namespaces_exist_before_any_event(self):
        metrics = StandardMetrics()
        assert set(metrics.registry.namespaces()) == {
            "net", "storage", "memory", "scheduler"
        }
