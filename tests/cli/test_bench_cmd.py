"""Tests for the ``repro bench`` subcommand and the bench library."""

import json

import pytest

from repro.bench import BENCHMARKS, format_summary, run_benchmarks
from repro.cli import main


@pytest.fixture(scope="module")
def quick_document():
    # One real (tiny) run shared by the library-level assertions.
    return run_benchmarks(
        quick=True,
        names=["flow_churn"],
        allocators=("incremental", "fullscan"),
    )


class TestBenchLibrary:
    def test_registry_names(self):
        assert set(BENCHMARKS) == {
            "flow_churn", "fanin_hotspot", "multipath_chunk_storm",
            "transfer_storm",
        }

    def test_document_shape(self, quick_document):
        doc = quick_document
        assert doc["schema"] == 1
        assert doc["mode"] == "quick"
        assert len(doc["benchmarks"]) == 2
        run = doc["benchmarks"][0]
        for key in (
            "name", "allocator", "flow_events", "events_per_sec",
            "realloc_count", "mean_component_size", "wall_s",
        ):
            assert key in run

    def test_event_counts_match_across_allocators(self, quick_document):
        # Both allocators must process the same workload with the same
        # component-scoped semantics, differing only in wall-clock.
        by_alloc = {
            run["allocator"]: run for run in quick_document["benchmarks"]
        }
        for key in ("flow_events", "realloc_count", "mean_component_size",
                    "timer_reschedules", "timer_elisions", "sim_time"):
            assert by_alloc["incremental"][key] == by_alloc["fullscan"][key]

    def test_component_scoping_visible_in_metrics(self, quick_document):
        # 8 disjoint components: each recompute covers one link's flows,
        # never the whole population.
        run = quick_document["benchmarks"][0]
        config = run["config"]
        assert run["mean_component_size"] <= (
            config["flows"] / config["components"]
        )

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmarks(names=["nope"])

    def test_summary_lists_every_run(self, quick_document):
        lines = format_summary(quick_document).splitlines()
        assert any("flow_churn" in ln and "incremental" in ln for ln in lines)
        assert any("flow_churn" in ln and "fullscan" in ln for ln in lines)

    def test_transfer_storm_compares_modes(self):
        doc = run_benchmarks(
            quick=True,
            names=["transfer_storm"],
            allocators=("incremental",),
        )
        (record,) = doc["benchmarks"]
        assert record["transfer_mode"] == "coalesced"
        per_batch = record["per_batch"]
        assert per_batch["transfer_mode"] == "per_batch"
        # Identical simulated outcome, far fewer real flows.
        assert record["sim_time"] == per_batch["sim_time"]
        assert record["flow_events"] == per_batch["flow_events"]
        assert record["flows_started"] < per_batch["flows_started"]
        assert "coalesced_speedup_over_per_batch" in record
        assert "coalesce[transfer_storm/incremental]" in format_summary(doc)


class TestBenchCommand:
    def test_writes_results_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_net.json"
        code = main([
            "bench", "flow_churn", "--quick", "--out", str(out),
            "--allocators", "incremental",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["generated_by"] == "repro bench"
        assert [run["name"] for run in doc["benchmarks"]] == ["flow_churn"]
        assert doc["modes"]["allocator"] == "incremental"
        assert "flow_churn" in capsys.readouterr().out

    def test_unknown_benchmark_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "nope", "--quick",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_unknown_allocator_exits_2(self, tmp_path, capsys):
        code = main([
            "bench", "flow_churn", "--quick",
            "--out", str(tmp_path / "x.json"),
            "--allocators", "quantum",
        ])
        assert code == 2
        assert "unknown allocator" in capsys.readouterr().err
