"""Span-tree assembly from telemetry event streams, and Gantt rendering."""

import pytest

from repro.dataplane import make_plane
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.telemetry import EventBus
from repro.telemetry.events import (
    FlowFinished,
    FlowsReallocated,
    FlowStarted,
    PlaneInfo,
    PoolAlloc,
    RequestArrived,
    RequestFinished,
    StageSpan,
    TransferFinished,
    TransferStarted,
)
from repro.telemetry.profiler import (
    FlowRecord,
    RequestTree,
    Span,
    SpanTreeBuilder,
    build_profiles,
    gantt,
)
from repro.topology import make_cluster
from repro.workflow import get_workload


def request_stream(rid="r0", t0=0.0):
    """One request: arrival, a two-kind stage block, egress, finish."""
    return [
        RequestArrived(t=t0, request_id=rid, workflow="driving"),
        StageSpan(t=t0 + 0.2, request_id=rid, stage="detect", kind="get",
                  start=t0 + 0.1, end=t0 + 0.2, device_id="n0.g0",
                  replica="detect#0"),
        StageSpan(t=t0 + 0.5, request_id=rid, stage="detect", kind="exec",
                  start=t0 + 0.2, end=t0 + 0.5, device_id="n0.g0",
                  replica="detect#0"),
        StageSpan(t=t0 + 0.6, request_id=rid, stage="detect", kind="egress",
                  start=t0 + 0.5, end=t0 + 0.6, device_id="n0.c0"),
        RequestFinished(t=t0 + 0.6, request_id=rid, workflow="driving",
                        latency=0.6, slo_met=True),
    ]


class TestSpanTreeBuilder:
    def test_assembles_request_tree(self):
        builder = SpanTreeBuilder()
        for event in request_stream():
            builder.feed(event)
        tree = builder.requests["r0"]
        assert tree.complete
        assert tree.workflow == "driving"
        assert tree.latency == 0.6
        assert tree.slo_met is True
        assert [s.kind for s in tree.stage_spans["detect"]] == [
            "get", "exec"
        ]
        assert tree.stage_spans["detect"][0].replica == "detect#0"
        assert len(tree.egress_spans) == 1
        assert builder.completed == [tree]

    def test_egress_spans_kept_out_of_stage_blocks(self):
        builder = SpanTreeBuilder()
        for event in request_stream():
            builder.feed(event)
        tree = builder.requests["r0"]
        kinds = {s.kind for spans in tree.stage_spans.values()
                 for s in spans}
        assert "egress" not in kinds

    def test_spans_for_unknown_request_are_dropped(self):
        builder = SpanTreeBuilder()
        builder.feed(StageSpan(t=1.0, request_id="ghost", stage="s",
                               kind="exec", start=0.0, end=1.0,
                               device_id="n0.g0"))
        assert builder.requests == {}

    def test_flow_ownership_and_rate_history(self):
        builder = SpanTreeBuilder()
        builder.feed(RequestArrived(t=0.0, request_id="r0",
                                    workflow="driving"))
        builder.feed(FlowStarted(
            t=0.0, flow_id=7, tag="gfn-gfn-intra", size=100.0,
            links=("l0",), src="a", dst="b", nominal_bw=100.0, owner="r0",
        ))
        builder.feed(FlowsReallocated(
            t=0.0, trigger="start", flow_id=7, component=(7,),
            links=("l0",), rescheduled=(7,), rates=(100.0,),
        ))
        builder.feed(FlowsReallocated(
            t=0.5, trigger="start", flow_id=8, component=(7,),
            links=("l0",), rescheduled=(7,), rates=(50.0,),
        ))
        builder.feed(FlowFinished(
            t=1.5, flow_id=7, tag="gfn-gfn-intra", size=100.0,
            links=("l0",), src="a", dst="b", started_at=0.0, owner="r0",
        ))
        record = builder.flows[7]
        assert builder.requests["r0"].flow_ids == [7]
        assert record.epochs() == [(0.0, 0.5, 100.0), (0.5, 1.5, 50.0)]

    def test_same_time_rate_point_overwrites_previous(self):
        # A flow start triggers a reallocation at the same instant the
        # flow got its provisional rate: the later value wins, no
        # zero-width epoch survives.
        record = FlowRecord(
            flow_id=1, tag="", owner="", links=("l0",), size=10.0,
            nominal_bw=10.0, started=0.0, finished=1.0,
            rate_points=[(0.0, 10.0)],
        )
        record.rate_points.append((0.0, 5.0))
        builder = SpanTreeBuilder()
        builder.flows[1] = record
        builder.feed(FlowsReallocated(
            t=0.0, trigger="start", flow_id=2, component=(1,),
            links=("l0",), rescheduled=(1,), rates=(2.0,),
        ))
        assert record.rate_points[-1] == (0.0, 2.0)
        assert record.epochs() == [(0.0, 1.0, 2.0)]

    def test_transfers_paired_by_id(self):
        builder = SpanTreeBuilder()
        builder.feed(RequestArrived(t=0.0, request_id="r0",
                                    workflow="driving"))
        builder.feed(TransferStarted(
            t=0.1, transfer_id=3, tag="gfn-host", size=8.0, src="a",
            dst="b", num_paths=1, owner="r0",
        ))
        builder.feed(TransferFinished(
            t=0.4, transfer_id=3, tag="gfn-host", size=8.0, src="a",
            dst="b", started_at=0.1, owner="r0",
        ))
        transfer = builder.requests["r0"].transfers[0]
        assert transfer.start == 0.1
        assert transfer.end == 0.4
        assert transfer.duration == 0.30000000000000004

    def test_pool_waits_and_plane_info(self):
        builder = SpanTreeBuilder()
        builder.feed(PlaneInfo(t=0.0, plane="grouter"))
        builder.feed(PoolAlloc(
            t=0.75, device_id="n0.g0", size=16.0, reserved=32.0,
            in_use=16.0, grew=True, requested_at=0.5,
        ))
        assert builder.plane == "grouter"
        wait = builder.pool_waits[0]
        assert wait.delay == 0.25
        assert wait.grew is True

    def test_attach_and_detach_on_live_bus(self):
        bus = EventBus()
        builder = SpanTreeBuilder().attach(bus)
        for event in request_stream():
            bus.publish(event)
        builder.detach()
        bus.publish(RequestArrived(t=9.0, request_id="late",
                                   workflow="driving"))
        assert "r0" in builder.requests
        assert "late" not in builder.requests


class TestBuildProfiles:
    def test_run_tagged_stream_splits_into_builders(self):
        events = [(0, e) for e in request_stream("r0")]
        events += [(1, e) for e in request_stream("r1", t0=5.0)]
        builders = build_profiles(events)
        assert sorted(builders) == [0, 1]
        assert "r0" in builders[0].requests
        assert "r1" in builders[1].requests
        assert "r1" not in builders[0].requests

    def test_plain_events_land_in_run_zero(self):
        builders = build_profiles(request_stream())
        assert list(builders) == [0]
        assert builders[0].requests["r0"].complete


def trace_driving(plane_name):
    """One driving request on *plane_name*, its span tree built live."""
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane(plane_name, env, cluster)
    platform = ServerlessPlatform(env, cluster, plane)
    env.telemetry = EventBus()
    builder = SpanTreeBuilder().attach(env.telemetry)
    proc = platform.submit(platform.deploy(get_workload("driving")))
    env.run()
    return proc.value, builder.requests[proc.value.request_id]


def all_spans(tree):
    return [
        s for spans in (*tree.stage_spans.values(), tree.egress_spans)
        for s in spans
    ]


class TestPlatformSpans:
    def test_platform_emits_spans_per_stage(self):
        _, tree = trace_driving("grouter")
        spans = all_spans(tree)
        assert {s.stage for s in spans} == {
            "gpu-denoise", "unet-seg", "gpu-colorize"
        }
        assert {"get", "exec", "put"} <= {s.kind for s in spans}
        assert all(s.end >= s.start for s in spans)

    def test_span_totals_match_stage_records(self):
        result, tree = trace_driving("infless+")
        spans = all_spans(tree)
        assert all(s.end >= s.start for s in spans)
        exec_total = sum(s.duration for s in spans if s.kind == "exec")
        get_total = sum(s.duration for s in spans if s.kind == "get")
        assert exec_total == pytest.approx(result.compute_time)
        recorded_get = sum(
            r.get_time for r in result.stage_records.values()
        )
        assert get_total == pytest.approx(recorded_get)


def tree_of(*spans):
    """A request tree holding ``(stage, kind, start, end)`` spans."""
    tree = RequestTree(request_id="r", workflow="wf", arrived=0.0)
    for stage, kind, start, end in spans:
        span = Span(kind=kind, start=start, end=end, stage=stage)
        if kind == "egress":
            tree.egress_spans.append(span)
        else:
            tree.stage_spans.setdefault(stage, []).append(span)
    return tree


class TestGantt:
    def test_empty_request(self):
        assert "no spans" in gantt(tree_of())

    def test_renders_rows_and_glyphs(self):
        chart = gantt(tree_of(("stage", "get", 0.0, 0.5),
                              ("stage", "exec", 0.5, 1.0)), width=20)
        lines = chart.splitlines()
        assert len(lines) == 3
        assert "<" in lines[1]
        assert "#" in lines[2]

    def test_rows_ordered_by_time_stage_then_kind(self):
        # Egress spans merge into the stage rows; ties on start break by
        # stage name, then by kind order, not by publish order.
        tree = tree_of(("b", "exec", 2.0, 3.0), ("b", "get", 2.0, 2.0),
                       ("b", "put", 3.0, 3.2), ("a", "egress", 3.0, 3.5),
                       ("a", "get", 0.0, 1.0))
        labels = [line.split(" ")[0]
                  for line in gantt(tree).splitlines()[1:]]
        assert labels == [
            "a[get]", "b[get]", "b[exec]", "a[egress]", "b[put]"
        ]

    def test_zero_duration_span_renders_one_glyph(self):
        chart = gantt(tree_of(("s", "exec", 0.0, 1.0),
                              ("s", "put", 1.0, 1.0)), width=20)
        put_row = next(r for r in chart.splitlines() if "[put]" in r)
        assert put_row.count(">") == 1

    def test_span_at_right_edge_stays_in_bounds(self):
        # A span starting at the very last column must neither round to
        # zero glyphs nor spill past the chart edge.
        width = 20
        chart = gantt(tree_of(("s", "exec", 0.0, 1.0),
                              ("s", "put", 1.0, 1.0)), width=width)
        for line in chart.splitlines()[1:]:
            bar = line.split("|")[1]
            assert len(bar) == width
            assert bar.strip(), "every span renders at least one glyph"

    def test_all_zero_duration_spans(self):
        chart = gantt(tree_of(("a", "get", 2.0, 2.0),
                              ("b", "exec", 2.0, 2.0)), width=10)
        assert "<" in chart and "#" in chart

    def test_overlapping_stages_render_separate_rows(self):
        chart = gantt(tree_of(("branch-a", "exec", 0.0, 2.0),
                              ("branch-b", "exec", 0.5, 1.5)), width=40)
        lines = chart.splitlines()
        assert len(lines) == 3
        assert "branch-a[exec]" in lines[1]
        assert "branch-b[exec]" in lines[2]
        # The inner span starts later and ends earlier than the outer.
        outer = lines[1].split("|")[1]
        inner = lines[2].split("|")[1]
        assert inner.index("#") > outer.index("#")
        assert len(inner.rstrip()) < len(outer.rstrip())
