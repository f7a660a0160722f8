"""Result retirement and the streaming trace driver."""

import pytest

from repro.platform import build_platform
from repro.traces import make_trace, stream_trace
from repro.workflow import get_workload

TRACE_KW = dict(pattern="sporadic", rate=3.0, duration=8.0, seed=11)


def fresh(**platform_kwargs):
    plat = build_platform(plane_name="grouter", **platform_kwargs)
    deployment = plat.deploy(get_workload("driving"), seed=0)
    return plat, deployment


class TestResultRetirement:
    def test_streaming_run_matches_materialized_run(self):
        trace = make_trace(**TRACE_KW)
        plat_a, dep_a = fresh()
        results_a = plat_a.run_trace(dep_a, trace)

        retired = []
        plat_b, dep_b = fresh(result_sink=retired.append,
                              keep_results=False)
        submitted = plat_b.run_trace_streaming(dep_b, trace)

        assert submitted == len(trace) > 0
        assert len(retired) == len(results_a)
        assert plat_b.results == []  # retired, not retained
        for a, b in zip(results_a, retired):
            assert a.request_id == b.request_id
            assert a.latency == b.latency
            assert a.data_time == b.data_time

    def test_keep_results_retains_both_paths(self):
        trace = make_trace(**TRACE_KW)
        retired = []
        plat, dep = fresh(result_sink=retired.append)  # keep_results=True
        plat.run_trace_streaming(dep, trace)
        assert plat.results == retired
        assert plat.completed_count == len(retired)

    def test_counters_survive_retirement(self):
        trace = make_trace(**TRACE_KW)
        plat, dep = fresh(keep_results=False)
        plat.run_trace_streaming(dep, trace)
        assert plat.completed_count == len(trace)
        assert plat.rejection_count == 0
        assert plat.results == []

    def test_retirement_drops_all_per_request_lists(self):
        """keep_results=False must leave NO per-request list growing.

        The three unbounded accumulators a trace run feeds are the
        platform's results, the plane's per-transfer records, and each
        replica's per-invocation execution history; a streaming run
        drops all three (their exact counters survive) so RSS stays
        flat in request count.
        """
        trace = make_trace(**TRACE_KW)
        plat, dep = fresh(keep_results=False)
        plat.run_trace_streaming(dep, trace)

        assert plat.plane.metrics.records == []
        assert plat.plane.metrics.dropped_records > 0
        assert plat.plane.metrics.bytes_moved() > 0  # aggregate survives
        with pytest.raises(RuntimeError):
            plat.plane.metrics.latencies()

        instances = [
            r for rs in dep.replica_sets.values() for r in rs
        ]
        assert sum(i.execution_count for i in instances) > 0
        assert all(i.executions == [] for i in instances)

    def test_materialized_run_keeps_accounting_lists(self):
        trace = make_trace(**TRACE_KW)
        plat, dep = fresh()  # keep_results=True default
        plat.run_trace(dep, trace)
        assert len(plat.plane.metrics.records) > 0
        assert plat.plane.metrics.latencies()
        assert any(
            r.executions
            for rs in dep.replica_sets.values() for r in rs
        )


class TestStreamingArrivals:
    def test_generator_trace_drives_platform(self):
        stream = stream_trace(
            "sporadic", rate=3.0, duration=20.0, seed=5, limit=25
        )
        retired = []
        plat, dep = fresh(result_sink=retired.append, keep_results=False)
        submitted = plat.run_trace_streaming(dep, stream)
        assert submitted == 25
        assert len(retired) == 25
        assert all(r.latency > 0 for r in retired)

    def test_plain_iterable_is_accepted(self):
        plat, dep = fresh(keep_results=False)
        submitted = plat.run_trace_streaming(dep, [0.5, 1.0, 1.5])
        assert submitted == 3
        assert plat.completed_count == 3

