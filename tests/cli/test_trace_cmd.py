"""Tests for the ``repro trace`` subcommand."""

import json

from repro.cli import build_parser, main
from repro.sim import Environment


class TestTraceCommand:
    def test_parser_accepts_trace(self):
        args = build_parser().parse_args(
            ["trace", "fig13", "--quick", "--out", "t.json"]
        )
        assert args.command == "trace"
        assert args.experiment == "fig13"
        assert args.out == "t.json"

    def test_unknown_experiment_fails(self, capsys):
        code = main(["trace", "nope"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_fig13_writes_valid_trace_and_summary(
        self, tmp_path, capsys
    ):
        path = tmp_path / "trace.json"
        code = main([
            "trace", "fig13", "--quick", "--quiet", "--out", str(path),
        ])
        assert code == 0
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            assert "ph" in event
            assert "ts" in event
            assert "pid" in event
            assert "tid" in event
        out = capsys.readouterr().out
        # Metrics summary covers all four subsystem namespaces.
        for namespace in ("net", "storage", "memory", "scheduler"):
            assert namespace in out
        assert "telemetry metrics" in out
        # The capture hook must not leak past the command.
        assert Environment.telemetry_hook is None

    def test_trace_stream_spools_incrementally(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main([
            "trace", "fig13", "--quick", "--quiet", "--stream",
            "--out", str(path),
        ])
        assert code == 0
        with open(path) as handle:
            doc = json.load(handle)  # finalized: full valid JSON array
        assert doc
        phases = {event["ph"] for event in doc}
        assert "M" in phases
        out = capsys.readouterr().out
        assert "streamed" in out
        assert "critical-path track unavailable" in out
        for namespace in ("net", "storage", "memory", "scheduler"):
            assert namespace in out
        assert Environment.telemetry_hook is None

    def test_stream_and_batch_trace_same_events(self, tmp_path):
        batch = tmp_path / "batch.json"
        stream = tmp_path / "stream.json"
        assert main([
            "trace", "fig13", "--quick", "--quiet", "--out", str(batch),
        ]) == 0
        assert main([
            "trace", "fig13", "--quick", "--quiet", "--stream",
            "--out", str(stream),
        ]) == 0
        with open(batch) as handle:
            batch_doc = json.load(handle)["traceEvents"]
        with open(stream) as handle:
            stream_doc = json.load(handle)
        # The batch path appends the profiler's critical-path track and
        # metadata; the streamed file must contain exactly the records
        # the bus events became, in the same order.  Flow ids come from
        # a process-wide counter, so the second run got other ones.
        def bus_records(doc):
            records = []
            for record in doc:
                if record["ph"] == "M" or \
                        record["pid"].endswith("critical-path"):
                    continue
                if "flow_id" in record["args"]:
                    record["args"]["flow_id"] = None
                records.append(record)
            return records

        batch_bus = bus_records(batch_doc)
        assert any(r["cat"] == "net.flow" for r in batch_bus)
        assert bus_records(stream_doc) == batch_bus
