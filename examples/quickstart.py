#!/usr/bin/env python3
"""Quickstart: move data between two GPU functions on every data plane.

Builds a simulated DGX-V100, places a producer on GPU0 and a consumer
on GPU3, pushes 256 MB through each data plane's Put/Get API, and
prints how long the exchange takes.  This is the paper's Fig. 2 in
about forty lines.

Run:  python examples/quickstart.py
"""

from repro.common.units import MB, fmt_time
from repro.dataplane import PLANES, make_plane
from repro.functions import FnContext, FunctionInstance, get_spec
from repro.sim import Environment
from repro.topology import make_cluster

SIZE = 256 * MB


def make_context(env, node, gpu_index, model):
    """A function context pinned to one GPU (its own container)."""
    instance = FunctionInstance(
        env,
        get_spec(model),
        node,
        gpu=node.gpu(gpu_index),
    )
    return FnContext(instance, workflow_id="wf-demo", request_id="req-0")


def run_plane(plane_name):
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane(plane_name, env, cluster)
    plane.acl.register_workflow("wf-demo", ["yolo-det", "person-rec"])
    node = cluster.nodes[0]
    producer = make_context(env, node, 0, "yolo-det")
    consumer = make_context(env, node, 3, "person-rec")
    timings = {}

    def exchange():
        t0 = env.now
        ref = yield plane.put(producer, SIZE)
        timings["put"] = env.now - t0
        t1 = env.now
        yield plane.get(consumer, ref)
        timings["get"] = env.now - t1
        timings["total"] = env.now - t0

    env.process(exchange())
    env.run()
    return timings


def main():
    print(f"Exchanging {SIZE / MB:.0f} MB between GPU0 and GPU3 "
          "(DGX-V100, one NVLink hop apart)\n")
    print(f"{'plane':<12} {'put':>12} {'get':>12} {'total':>12}")
    baseline = None
    for plane_name in PLANES:
        timings = run_plane(plane_name)
        if baseline is None:
            baseline = timings["total"]
        speedup = baseline / timings["total"]
        print(
            f"{plane_name:<12} {fmt_time(timings['put']):>12} "
            f"{fmt_time(timings['get']):>12} {fmt_time(timings['total']):>12}"
            f"   ({speedup:.1f}x vs infless+)"
        )
    print("\nGROUTER stores the data on the producer's own GPU (the put is"
          "\njust a pool allocation) and moves it exactly once, over"
          "\nparallel NVLink paths, when the consumer asks for it.")


if __name__ == "__main__":
    main()
