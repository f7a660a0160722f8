"""Fig. 7 — GPU memory dynamics under an Azure-style trace.

(a) Idle GPU memory while the *driving* workflow replays a trace on a
16 GB-per-GPU DGX-V100 — memory is mostly underutilized but varies
unpredictably.

(b) Forced evictions once available storage shrinks: with a tight
storage limit, puts push earlier objects out to host memory.
"""

from __future__ import annotations

from repro.common.units import GB
from repro.dataplane import CAT_MIGRATION
from repro.experiments.harness import ExperimentTable, build_testbed
from repro.traces import make_trace
from repro.workflow import get_workload


def run_memory_timeline(
    pattern: str = "bursty",
    rate: float = 4.0,
    duration: float = 20.0,
) -> ExperimentTable:
    """Fig. 7(a): idle GPU memory over time (summary statistics)."""
    testbed = build_testbed(
        plane_name="grouter",
        plane_kwargs={"record_timelines": True},
    )
    deployment = testbed.platform.deploy(get_workload("driving"))
    trace = make_trace(pattern, rate=rate, duration=duration, seed=5)
    testbed.platform.run_trace(deployment, trace)

    table = ExperimentTable(
        name="Fig 7(a): idle GPU memory under Azure-style trace (per GPU)",
        columns=["gpu", "capacity_gb", "min_idle_gb", "mean_idle_gb",
                 "max_idle_gb", "samples"],
    )
    for device_id, memory in sorted(testbed.plane.device_memory.items()):
        if not memory.timeline:
            continue
        idle = [memory.capacity - s.used for s in memory.timeline]
        table.add(
            gpu=device_id,
            capacity_gb=memory.capacity / GB,
            min_idle_gb=min(idle) / GB,
            mean_idle_gb=sum(idle) / len(idle) / GB,
            max_idle_gb=max(idle) / GB,
            samples=len(idle),
        )
    return table


def run_forced_eviction(
    limits=(1.0, 0.2, 0.1, 0.05),
    rate: float = 4.0,
    duration: float = 15.0,
) -> ExperimentTable:
    """Fig. 7(b): evictions to host as available memory diminishes."""
    table = ExperimentTable(
        name="Fig 7(b): forced data eviction vs available GPU memory",
        columns=["storage_limit_fraction", "migrations", "admission_spills",
                 "migrated_gb", "p99_latency_ms"],
    )
    for fraction in limits:
        testbed = build_testbed(
            plane_name="grouter",
            plane_kwargs={"storage_limit_fraction": fraction},
        )
        deployment = testbed.platform.deploy(get_workload("driving"))
        trace = make_trace("bursty", rate=rate, duration=duration, seed=1)
        results = testbed.platform.run_trace(deployment, trace)
        metrics = testbed.plane.metrics
        latencies = sorted(r.latency for r in results)
        p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0
        table.add(
            storage_limit_fraction=fraction,
            migrations=metrics.transfers.get(CAT_MIGRATION, 0),
            admission_spills=metrics.admission_spills,
            migrated_gb=metrics.bytes_moved(CAT_MIGRATION) / GB,
            p99_latency_ms=p99 * 1e3,
        )
    return table
