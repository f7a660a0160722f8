"""Tests for the routing benchmark suite and its CLI wiring."""

import json

import pytest

from repro.bench import (
    ROUTING_BENCHMARKS,
    format_routing_summary,
    run_routing_benchmarks,
)
from repro.bench.history import extract_metrics
from repro.bench.routing import MODES
from repro.cli import main

QUICK_NAMES = ["nvlink_mesh", "pcie_harvest"]


@pytest.fixture(scope="module")
def quick_document():
    # Two scenarios keep the module fast while still covering the
    # enumeration-heavy mesh and the harvest selector.
    return run_routing_benchmarks(quick=True, names=QUICK_NAMES)


class TestRoutingBenchLibrary:
    def test_registry_names(self):
        assert set(ROUTING_BENCHMARKS) == {
            "nvlink_mesh", "nvlink_mesh_contended", "nvlink_nvswitch",
            "pcie_harvest", "cluster_nic",
        }

    def test_document_shape(self, quick_document):
        doc = quick_document
        assert doc["generated_by"] == "repro bench --suite routing"
        assert doc["mode"] == "quick"
        assert [run["name"] for run in doc["benchmarks"]] == QUICK_NAMES
        for run in doc["benchmarks"]:
            assert set(run["modes"]) == set(MODES)
            for stats in run["modes"].values():
                assert stats["decisions"] > 0
                assert stats["decisions_per_sec"] > 0

    def test_speedup_is_warm_over_enumerate(self, quick_document):
        for run in quick_document["benchmarks"]:
            modes = run["modes"]
            assert run["speedup_warm_book_over_enumerate"] == pytest.approx(
                modes["book_warm"]["decisions_per_sec"]
                / modes["enumerate"]["decisions_per_sec"]
            )
        assert set(
            quick_document["speedup_warm_book_over_enumerate"]
        ) == set(QUICK_NAMES)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_routing_benchmarks(names=["nope"])

    def test_summary_lists_every_mode(self, quick_document):
        summary = format_routing_summary(quick_document)
        for mode in MODES:
            assert mode in summary
        assert "warm/enum" in summary

    def test_history_metrics_extraction(self, quick_document):
        metrics = extract_metrics("routing", quick_document)
        for run in quick_document["benchmarks"]:
            for mode in MODES:
                key = f"{run['name']}/{mode}.decisions_per_sec"
                assert metrics[key] == (
                    run["modes"][mode]["decisions_per_sec"]
                )


class TestRoutingBenchCommand:
    def test_writes_results_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_routing.json"
        code = main([
            "bench", "--suite", "routing", "--quick", "--no-history",
            "--out", str(out), "pcie_harvest",
        ])
        assert code == 0
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["benchmarks"][0]["name"] == "pcie_harvest"
        assert "pcie_harvest" in capsys.readouterr().out

    def test_parser_accepts_suite(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "--suite", "routing", "--quick"]
        )
        assert args.suite == "routing"

    def test_allocators_flag_rejected(self, tmp_path, capsys):
        code = main([
            "bench", "--suite", "routing", "--quick",
            "--allocators", "fullscan",
            "--out", str(tmp_path / "b.json"),
        ])
        assert code == 2
        assert "allocators" in capsys.readouterr().err
