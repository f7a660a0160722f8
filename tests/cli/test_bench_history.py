"""Tests for bench trajectory records and ``repro bench --compare``."""

import json

import pytest

from repro.bench.history import (
    append_record,
    compare_records,
    extract_metrics,
    format_compare,
    latest_comparable,
    load_history,
    make_record,
)
from repro.cli import main

NET_DOC = {
    "mode": "quick",
    "modes": {"telemetry": "off"},
    "python": "3.11.0",
    "benchmarks": [
        {"name": "flow_churn", "allocator": "incremental",
         "events_per_sec": 50_000.0},
        {"name": "fanin_hotspot", "allocator": "fullscan",
         "events_per_sec": 20_000.0},
    ],
}

TELEMETRY_DOC = {
    "mode": "quick", "modes": {}, "python": "3.11.0",
    "benchmarks": [
        {"name": "event_fanout", "overhead_x": 1.4,
         "modes": {"off": {"events_per_sec": 9000.0},
                   "buffered": {"events_per_sec": 6000.0}}},
    ],
}

ENDTOEND_DOC = {
    "mode": "quick", "modes": {}, "python": "3.11.0",
    "benchmarks": [
        {"name": "request_storm", "requests_per_sec": 120.0,
         "peak_rss_bytes": 10_000_000},
    ],
}


class TestExtractMetrics:
    def test_net_per_allocator(self):
        metrics = extract_metrics("net", NET_DOC)
        assert metrics == {
            "flow_churn/incremental.events_per_sec": 50_000.0,
            "fanin_hotspot/fullscan.events_per_sec": 20_000.0,
        }

    def test_telemetry_modes_and_overhead(self):
        metrics = extract_metrics("telemetry", TELEMETRY_DOC)
        assert metrics["event_fanout/off.events_per_sec"] == 9000.0
        assert metrics["event_fanout.overhead_x"] == 1.4

    def test_endtoend(self):
        metrics = extract_metrics("endtoend", ENDTOEND_DOC)
        assert metrics == {
            "request_storm.requests_per_sec": 120.0,
            "request_storm.peak_rss_bytes": 10_000_000,
        }

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            extract_metrics("quantum", {})


class TestRecords:
    def test_make_record_fields(self):
        record = make_record("net", NET_DOC, recorded_at="2026-01-01")
        assert record["recorded_at"] == "2026-01-01"
        assert record["suite"] == "net"
        assert record["mode"] == "quick"
        assert record["modes"] == {"telemetry": "off"}
        assert record["metrics"]

    def test_make_record_stamps_now(self):
        assert make_record("net", NET_DOC)["recorded_at"]

    def test_append_load_roundtrip(self, tmp_path):
        path = tmp_path / "hist" / "BENCH_history.jsonl"
        first = make_record("net", NET_DOC, recorded_at="r1")
        second = make_record("net", NET_DOC, recorded_at="r2")
        append_record(first, str(path))
        append_record(second, str(path))
        assert load_history(str(path)) == [first, second]

    def test_load_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record = make_record("net", NET_DOC, recorded_at="r1")
        append_record(record, str(path))
        with open(path, "a") as handle:
            handle.write('{"recorded_at": "r2", "suite"')  # crashed run
        assert load_history(str(path)) == [record]

    def test_load_missing_file(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []

    def test_latest_comparable_matches_suite_mode_modes(self):
        base = make_record("net", NET_DOC, recorded_at="r1")
        newer = make_record("net", NET_DOC, recorded_at="r2")
        other_suite = make_record("endtoend", ENDTOEND_DOC,
                                  recorded_at="r3")
        full_mode = make_record(
            "net", {**NET_DOC, "mode": "full"}, recorded_at="r4"
        )
        history = [base, newer, other_suite, full_mode]
        current = make_record("net", NET_DOC, recorded_at="r5")
        assert latest_comparable(history, current) == newer
        assert latest_comparable([], current) is None
        assert latest_comparable([other_suite], current) is None


class TestCompare:
    def previous(self, suite="net", document=NET_DOC, **metrics):
        record = make_record(suite, document, recorded_at="prev")
        record["metrics"] = {**record["metrics"], **metrics}
        return record

    def test_no_previous(self):
        current = make_record("net", NET_DOC)
        result = compare_records(current, None)
        assert not result["comparable"]
        assert "skipped" in format_compare(result)

    def test_within_tolerance_is_ok(self):
        current = make_record("net", NET_DOC)
        result = compare_records(current, self.previous(), tolerance=0.15)
        assert result["comparable"]
        assert result["regressions"] == []
        assert result["improvements"] == []
        assert all(row["verdict"] == "ok"
                   for row in result["metrics"].values())

    def test_throughput_drop_regresses(self):
        # Previous throughput was 2x: current run halved -> regression.
        previous = self.previous(**{
            "flow_churn/incremental.events_per_sec": 100_000.0,
        })
        result = compare_records(make_record("net", NET_DOC), previous)
        assert "flow_churn/incremental.events_per_sec" in (
            result["regressions"]
        )
        assert "REGRESSED" in format_compare(result)

    def test_memory_rise_regresses(self):
        # peak_rss_bytes is lower-is-better: it doubled -> regression.
        previous = self.previous("endtoend", ENDTOEND_DOC, **{
            "request_storm.peak_rss_bytes": 5_000_000,
        })
        result = compare_records(
            make_record("endtoend", ENDTOEND_DOC), previous
        )
        assert result["regressions"] == ["request_storm.peak_rss_bytes"]

    def test_improvement_direction(self):
        previous = self.previous("endtoend", ENDTOEND_DOC, **{
            "request_storm.requests_per_sec": 60.0,  # doubled
            "request_storm.peak_rss_bytes": 20_000_000,  # halved
        })
        result = compare_records(
            make_record("endtoend", ENDTOEND_DOC), previous
        )
        assert set(result["improvements"]) == {
            "request_storm.requests_per_sec",
            "request_storm.peak_rss_bytes",
        }
        assert result["regressions"] == []

    def test_metric_absent_from_previous_is_skipped(self):
        previous = self.previous()
        del previous["metrics"]["flow_churn/incremental.events_per_sec"]
        result = compare_records(make_record("net", NET_DOC), previous)
        assert ("flow_churn/incremental.events_per_sec"
                not in result["metrics"])


class TestBenchHistoryCommand:
    def bench(self, tmp_path, *extra):
        return main([
            "bench", "flow_churn", "--quick",
            "--out", str(tmp_path / "BENCH_net.json"),
            "--allocators", "incremental", *extra,
        ])

    def test_appends_record_next_to_out(self, tmp_path, capsys):
        assert self.bench(tmp_path) == 0
        history = load_history(str(tmp_path / "BENCH_history.jsonl"))
        assert len(history) == 1
        assert history[0]["suite"] == "net"
        assert "appended net record" in capsys.readouterr().out

    def test_no_history_skips_append(self, tmp_path, capsys):
        assert self.bench(tmp_path, "--no-history") == 0
        assert not (tmp_path / "BENCH_history.jsonl").exists()

    def test_compare_against_previous_run(self, tmp_path, capsys):
        assert self.bench(tmp_path) == 0
        # Huge tolerance: two quick runs always compare clean.
        assert self.bench(tmp_path, "--compare", "--tolerance", "10") == 0
        out = capsys.readouterr().out
        assert "compare vs" in out
        assert "no regressions beyond tolerance" in out
        history = load_history(str(tmp_path / "BENCH_history.jsonl"))
        assert len(history) == 2

    def test_compare_without_baseline_is_clean(self, tmp_path, capsys):
        assert self.bench(tmp_path, "--compare") == 0
        assert "skipped (no previous comparable record)" in (
            capsys.readouterr().out
        )

    def test_compare_flags_regression(self, tmp_path, capsys):
        assert self.bench(tmp_path) == 0
        # Rewrite the baseline with absurdly better numbers so the
        # fresh run deterministically regresses.
        path = tmp_path / "BENCH_history.jsonl"
        (record,) = load_history(str(path))
        record["metrics"] = {
            name: value * 1000.0
            for name, value in record["metrics"].items()
        }
        path.write_text(json.dumps(record) + "\n")
        assert self.bench(tmp_path, "--compare") == 1
        assert "REGRESSED" in capsys.readouterr().out
