#!/usr/bin/env python3
"""Elastic GPU storage under memory pressure (paper §4.4).

Caps GPU storage at 5% of device memory, replays a bursty trace of the
traffic workflow, and shows what the elastic storage layer did about
it: histogram-scaled pool sizes, queue-aware migrations to host memory,
and proactive restores.  A second run with LRU eviction shows why
request-queue awareness matters at the tail.

Run:  python examples/elastic_storage_demo.py
"""

from repro.common.units import GB, MB, fmt_time
from repro.dataplane import CAT_MIGRATION, CAT_RESTORE, make_plane
from repro.metrics import LatencyRecorder
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.topology import make_cluster
from repro.traces import make_trace
from repro.workflow import get_workload

STORAGE_FRACTION = 0.06
RATE = 12.0
DURATION = 20.0


def run(eviction_policy, proactive_restore):
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane(
        "grouter",
        env,
        cluster,
        storage_limit_fraction=STORAGE_FRACTION,
        eviction_policy=eviction_policy,
        proactive_restore=proactive_restore,
    )
    platform = ServerlessPlatform(env, cluster, plane)
    deployment = platform.deploy(get_workload("driving"))
    trace = make_trace("bursty", rate=RATE, duration=DURATION, seed=11)
    results = platform.run_trace(deployment, trace)
    return plane, results


def describe(label, plane, results):
    recorder = LatencyRecorder()
    recorder.extend([r.latency for r in results])
    transfers = plane.metrics.transfers
    pool_peak = sum(p.peak_reserved for p in plane.pools.values())
    pool_now = plane.total_pool_reserved()
    print(f"[{label}]")
    print(f"  completed      : {len(results)} requests")
    print(f"  P99 latency    : {fmt_time(recorder.p99)}")
    print(f"  migrations     : {transfers.get(CAT_MIGRATION, 0)} "
          f"({plane.metrics.bytes_moved(CAT_MIGRATION) / MB:.0f} MB to host)")
    print(f"  restores       : {transfers.get(CAT_RESTORE, 0)}")
    print(f"  pool peak/now  : {pool_peak / GB:.2f} GB / {pool_now / GB:.2f} GB")
    print()


def main():
    print(f"GPU storage capped at {STORAGE_FRACTION:.0%} of device memory, "
          f"bursty trace ({RATE:.0f} req/s)\n")
    plane, results = run("queue-aware", proactive_restore=True)
    describe("GROUTER (queue-aware + proactive restore)", plane, results)
    plane, results = run("lru", proactive_restore=False)
    describe("LRU eviction, no restore", plane, results)
    print("Queue-aware eviction keeps the data the *next* invocations "
          "need on the GPU\nand proactively restores migrated objects "
          "when memory frees up.")


if __name__ == "__main__":
    main()
