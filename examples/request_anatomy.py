#!/usr/bin/env python3
"""Anatomy of one request: where does the time go?

Runs a single driving-workflow request under the host-centric baseline
and under GROUTER with the profiler's span-tree builder listening on
the telemetry bus, and prints an ASCII Gantt chart of each: queueing,
input fetches, execution, output publication per stage.  The
baseline's chart is dominated by ``<`` (fetch) and ``>`` (publish)
bars; GROUTER's is mostly ``#`` (compute).

Run:  python examples/request_anatomy.py
"""

from repro.dataplane import make_plane
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.telemetry import EventBus
from repro.telemetry.profiler import SPAN_KINDS, SpanTreeBuilder, gantt
from repro.topology import make_cluster
from repro.workflow import get_workload


def trace_one(plane_name):
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane(plane_name, env, cluster)
    platform = ServerlessPlatform(env, cluster, plane)
    env.telemetry = EventBus()
    builder = SpanTreeBuilder().attach(env.telemetry)
    deployment = platform.deploy(get_workload("driving"))
    proc = platform.submit(deployment)
    env.run()
    return builder.requests[proc.value.request_id]


def summary(tree):
    """One-line breakdown of where the request's time went."""
    totals = dict.fromkeys(SPAN_KINDS, 0.0)
    for spans in (*tree.stage_spans.values(), tree.egress_spans):
        for span in spans:
            totals[span.kind] += span.duration
    parts = [
        f"{kind}={totals[kind] * 1e3:.2f}ms"
        for kind in SPAN_KINDS
        if totals[kind] > 0
    ]
    return f"{tree.request_id}: " + ", ".join(parts)


def main():
    for plane_name in ("infless+", "grouter"):
        tree = trace_one(plane_name)
        print(f"=== {plane_name} ===")
        print(gantt(tree))
        print(summary(tree))
        print()


if __name__ == "__main__":
    main()
