"""Tests for the Chrome/Perfetto trace_event exporter."""

import json

import pytest

from repro.telemetry import export_chrome_trace, to_trace_events
from repro.telemetry.events import (
    FlowFinished,
    PoolAlloc,
    RequestFinished,
    StageSpan,
    StorePut,
)


def sample_events():
    return [
        FlowFinished(
            t=0.002, flow_id=0, tag="probe", size=1024.0,
            links=("n0.g0>n0.sw0", "n0.sw0>n0.host"),
            src="n0.g0", dst="n0.host", started_at=0.001,
        ),
        StorePut(
            t=0.002, object_id="obj-1", device_id="n0.host",
            size=1024.0, placement="host",
        ),
        PoolAlloc(
            t=0.001, device_id="n0.g0", size=1024.0,
            reserved=4096.0, in_use=1024.0, grew=False,
        ),
        StageSpan(
            t=0.01, request_id="req-1", stage="unet-seg", kind="exec",
            start=0.004, end=0.01, device_id="n1.g2",
        ),
        RequestFinished(
            t=0.02, request_id="req-1", workflow="driving",
            latency=0.018, slo_met=True,
        ),
    ]


class TestConversion:
    def test_flow_emits_one_slice_per_link(self):
        events = to_trace_events([sample_events()[0]])
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        assert {s["tid"] for s in slices} == {
            "n0.g0>n0.sw0", "n0.sw0>n0.host"
        }
        # pid is the node owning the link; ts/dur are microseconds.
        assert slices[0]["pid"] == "n0"
        assert slices[0]["ts"] == 1000.0
        assert slices[0]["dur"] == 1000.0

    def test_stage_span_lands_on_its_device(self):
        events = to_trace_events([sample_events()[3]])
        span = next(e for e in events if e["ph"] == "X")
        assert span["pid"] == "n1"
        assert span["tid"] == "n1.g2"
        assert span["name"] == "unet-seg:exec"

    def test_pool_event_becomes_counter(self):
        events = to_trace_events([sample_events()[2]])
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["args"] == {"reserved": 4096.0, "in_use": 1024.0}

    def test_metadata_names_processes(self):
        events = to_trace_events(sample_events())
        metadata = [e for e in events if e["ph"] == "M"]
        assert metadata
        assert all(e["name"] == "process_name" for e in metadata)
        named = {e["args"]["name"] for e in metadata}
        assert "n0" in named

    def test_multi_run_prefixes_pids(self):
        tagged = [(run, e) for run in (0, 1) for e in sample_events()]
        events = to_trace_events(tagged, multi_run=True)
        pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert any(pid.startswith("run0:") for pid in pids)
        assert any(pid.startswith("run1:") for pid in pids)


class TestExport:
    def test_written_file_is_valid_trace_json(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(sample_events(), path=str(path))
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            assert "ph" in event
            assert "ts" in event
            assert "pid" in event
            assert "tid" in event

    def test_instants_are_thread_scoped(self):
        doc = export_chrome_trace(sample_events())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants
        assert all(e["s"] == "t" for e in instants)

    def test_request_finished_renders_latency_slice(self):
        doc = export_chrome_trace(sample_events())
        req = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "request"
            and e["name"] == "req-1"
        )
        assert req["dur"] == pytest.approx(18000.0)
        assert req["ts"] == pytest.approx(2000.0)


class TestPlatformCounterTracks:
    def test_stage_queue_depth_becomes_counter(self):
        from repro.telemetry.events import StageQueueDepth

        events = to_trace_events([
            StageQueueDepth(t=0.5, stage="detect", depth=3),
        ])
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["name"] == "stage-queue detect"
        assert counter["pid"] == "platform"
        assert counter["tid"] == "queue:detect"
        assert counter["args"] == {"depth": 3}

    def test_counters_respect_run_prefix(self):
        from repro.telemetry.events import StageQueueDepth

        events = to_trace_events(
            [(1, StageQueueDepth(t=0.5, stage="s", depth=1))],
            multi_run=True,
        )
        counter = next(e for e in events if e["ph"] == "C")
        assert counter["pid"] == "run1:platform"
