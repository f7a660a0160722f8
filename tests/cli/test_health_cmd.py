"""Tests for the ``repro health`` subcommand."""

import json

from repro.cli import main
from repro.telemetry.sinks import SCHEMA


def run_health(tmp_path, *extra):
    out = tmp_path / "health.json"
    spool = tmp_path / "events.jsonl"
    code = main([
        "health", "fig14", "--quick", "--quiet",
        "--out", str(out), "--spool", str(spool), *extra,
    ])
    return code, out, spool


class TestHealthCommand:
    def test_writes_parseable_health_json(self, tmp_path, capsys):
        code, out, spool = run_health(tmp_path)
        assert code == 0
        health = json.loads(out.read_text())
        assert health["overall"] in ("ok", "degraded", "violated")
        assert health["runs"]
        for run in health["runs"]:
            assert set(run["attainment"]) == {
                "latency", "ttft", "data_share"
            }
            assert run["verdict"] in ("ok", "degraded", "violated")
        assert spool.exists()
        stdout = capsys.readouterr().out
        assert "overall:" in stdout
        assert "slo latency" in stdout

    def test_healthy_quick_run_fully_attains(self, tmp_path, capsys):
        # The default SLOs are generous: a quick run must be all-ok.
        code, out, _spool = run_health(tmp_path, "--strict")
        assert code == 0
        health = json.loads(out.read_text())
        assert health["overall"] == "ok"
        assert health["total_episodes"] == 0
        assert all(v == 1.0 for v in health["attainment"].values())

    def test_replay_reproduces_bit_identical_document(self, tmp_path,
                                                      capsys):
        code, out, spool = run_health(tmp_path)
        assert code == 0
        replay_out = tmp_path / "health_replay.json"
        code = main([
            "health", "--replay", str(spool), "--out", str(replay_out),
        ])
        assert code == 0
        assert replay_out.read_bytes() == out.read_bytes()

    def test_trace_emits_slo_counter_records(self, tmp_path, capsys):
        trace = tmp_path / "slo_trace.json"
        code, _out, _spool = run_health(tmp_path, "--trace", str(trace))
        assert code == 0
        document = json.loads(trace.read_text())
        records = document["traceEvents"]
        assert records
        assert all(record["ph"] == "C" for record in records)
        assert any(record["name"].startswith("slo ") for record in records)

    def test_strict_flags_violating_run(self, tmp_path, capsys):
        # An absurd latency target forces episodes -> exit 1 under
        # --strict.
        code, out, _spool = run_health(
            tmp_path, "--strict", "--latency-slo-ms", "0.001",
        )
        assert code == 1
        health = json.loads(out.read_text())
        assert health["overall"] == "violated"
        assert health["total_episodes"] >= 1

    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        code = main([
            "health", "nope", "--out", str(tmp_path / "h.json"),
        ])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_replay_of_foreign_schema_exits_2(self, tmp_path, capsys):
        # A spool written by a version with one more event type.
        spool = tmp_path / "foreign.jsonl"
        stale = ["RetiredEvent", ["t", "request_id"]]
        header = dict(SCHEMA, types=[stale] + SCHEMA["types"])
        spool.write_text(json.dumps(header) + "\n")
        out = tmp_path / "health.json"
        code = main(["health", "--replay", str(spool), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "different event schema" in err

    def test_replay_of_missing_spool_exits_2(self, tmp_path, capsys):
        out = tmp_path / "health.json"
        code = main([
            "health", "--replay", str(tmp_path / "missing.jsonl.gz"),
            "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")
