"""Tests for the experiment harness utilities and fig12 catalog."""

import pytest

from repro.common.units import MB
from repro.experiments import fig12
from repro.experiments.harness import (
    ExperimentTable,
    breakdown_request,
    build_testbed,
    gpu_ctx,
    mean,
    measure_put_get,
    p99,
    register_probe_workflow,
)
from repro.platform import RequestResult, StageRecord
from repro.workflow import get_workload


class TestExperimentTable:
    def test_format_alignment_and_values(self):
        table = ExperimentTable(
            name="t", columns=["a", "b"], notes="note"
        )
        table.add(a="x", b=1.2345)
        table.add(a="longer", b=None)
        text = table.format()
        assert "== t ==" in text
        assert "note" in text
        assert "1.234" in text
        assert "-" in text  # None rendered as dash

    def test_format_handles_extremes(self):
        table = ExperimentTable(name="t", columns=["v"])
        table.add(v=1234567.0)
        table.add(v=0.0000001)
        table.add(v=0)
        text = table.format()
        assert "1.23e+06" in text
        assert "1e-07" in text

    def test_empty_table_formats(self):
        table = ExperimentTable(name="empty", columns=["a"])
        assert "== empty ==" in table.format()


class TestStats:
    def test_p99_and_mean(self):
        values = [float(i) for i in range(1, 101)]
        assert p99(values) == pytest.approx(99.01)
        assert mean(values) == pytest.approx(50.5)

    def test_empty_is_nan(self):
        assert p99([]) != p99([])  # NaN
        assert mean([]) != mean([])


class TestBreakdownAttribution:
    def test_gpu_chain_attribution(self):
        workflow = get_workload("driving").workflow
        result = RequestResult(
            request_id="r", workflow="driving", arrived_at=0.0,
            finished_at=1.0,
        )
        # Entry stage: get from host (ingress); exit: put to host.
        result.stage_records["gpu-denoise"] = StageRecord(
            stage="gpu-denoise", get_time=0.1, compute_time=0.2,
            put_time=0.01,
        )
        result.stage_records["unet-seg"] = StageRecord(
            stage="unet-seg", get_time=0.05, compute_time=0.3,
            put_time=0.02,
        )
        result.stage_records["gpu-colorize"] = StageRecord(
            stage="gpu-colorize", get_time=0.03, compute_time=0.1,
            put_time=0.15,
        )
        b = breakdown_request(result, workflow)
        # Entry get is gFn-host; mid-chain gets/puts are gFn-gFn; exit
        # put is gFn-host.
        assert b.gfn_host == pytest.approx(0.1 + 0.15)
        assert b.gfn_gfn == pytest.approx(0.01 + 0.05 + 0.02 + 0.03)
        assert b.compute == pytest.approx(0.6)
        assert 0 < b.data_fraction < 1

    def test_traffic_cpu_entry_attribution(self):
        workflow = get_workload("traffic").workflow
        result = RequestResult(
            request_id="r", workflow="traffic", arrived_at=0.0,
            finished_at=1.0,
        )
        result.stage_records["video-decode"] = StageRecord(
            stage="video-decode", get_time=0.01, compute_time=0.1,
            put_time=0.02,
        )
        b = breakdown_request(result, workflow)
        # A cFn reading host input is cFn-cFn; its put feeds a gFn.
        assert b.cfn_cfn == pytest.approx(0.01)
        assert b.gfn_host == pytest.approx(0.02)


class TestProbeHelpers:
    def test_measure_put_get_reports_all_phases(self):
        testbed = build_testbed(with_platform=False)
        register_probe_workflow(testbed.plane)
        src = gpu_ctx(testbed, 0, 0)
        dst = gpu_ctx(testbed, 0, 3, model="person-rec")
        out = measure_put_get(testbed, src, dst, 32 * MB)
        assert out["total"] == pytest.approx(out["put"] + out["get"])
        assert out["total"] > 0


class TestFig12:
    def test_suite_catalog(self):
        table = fig12.run()
        names = [r["workflow"] for r in table.rows]
        assert names[:5] == [
            "traffic", "driving", "video", "image", "recognition"
        ]
        by_name = {r["workflow"]: r for r in table.rows}
        assert by_name["driving"]["patterns"] == "sequence"
        assert "condition" in by_name["traffic"]["patterns"]
        assert "fan-in" in by_name["video"]["patterns"]
