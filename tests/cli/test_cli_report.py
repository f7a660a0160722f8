"""Tests for the CLI and report rendering."""

import json
import os

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.common.errors import ConfigError
from repro.experiments.harness import ExperimentTable
from repro.report import render, to_csv, to_json


@pytest.fixture
def table():
    t = ExperimentTable(
        name="demo", columns=["plane", "latency_ms"], notes="test table"
    )
    t.add(plane="infless+", latency_ms=40.0)
    t.add(plane="grouter", latency_ms=2.0)
    return t


class TestReport:
    def test_csv_round_trip(self, table):
        text = to_csv(table)
        lines = text.strip().splitlines()
        assert lines[0] == "plane,latency_ms"
        assert lines[1] == "infless+,40.0"
        assert len(lines) == 3

    def test_json_structure(self, table):
        doc = json.loads(to_json(table))
        assert doc["name"] == "demo"
        assert doc["rows"][1]["plane"] == "grouter"

    def test_render_formats(self, table):
        assert "== demo ==" in render(table, "table")
        assert render(table, "csv").startswith("plane")
        assert json.loads(render(table, "json"))
        with pytest.raises(ConfigError):
            render(table, "xml")


class TestCli:
    def test_parser_rejects_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert "grouter" in out

    def test_topo_command(self, capsys):
        assert main(["topo", "dgx-v100"]) == 0
        out = capsys.readouterr().out
        assert "8 GPUs" in out
        assert "16/28 pairs linked" in out

    def test_topo_a10_shows_no_nvlink(self, capsys):
        assert main(["topo", "a10"]) == 0
        assert "no NVLink" in capsys.readouterr().out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("traffic", "driving", "video", "image", "recognition"):
            assert name in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_quick_writes_output(self, tmp_path, capsys):
        code = main([
            "run", "table1", "--quick", "--out", str(tmp_path),
            "--format", "csv",
        ])
        assert code == 0
        files = os.listdir(tmp_path)
        assert files
        content = (tmp_path / files[0]).read_text()
        assert "grouter" in content

    def test_every_experiment_has_quick_variant(self):
        for name, (description, full, quick) in EXPERIMENTS.items():
            assert description
            assert callable(full)
            assert callable(quick)
