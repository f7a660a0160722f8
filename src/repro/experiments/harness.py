"""Shared experiment harness: builders, attribution, table formatting.

Every ``figXX``/``tableX`` module produces a list of row dicts plus a
formatted table so benchmarks can both assert on the numbers and print
the series the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.dataplane import make_plane
from repro.dataplane.base import DataPlane
from repro.functions import FnContext, FunctionInstance, get_spec
from repro.platform import RequestResult, ServerlessPlatform
from repro.sim import Environment
from repro.topology import ClusterTopology, make_cluster
from repro.traces import make_trace
from repro.workflow import WorkloadSpec, get_workload
from repro.workflow.dag import Workflow


@dataclass
class Testbed:
    """A fresh simulation stack for one experiment run."""

    env: Environment
    cluster: ClusterTopology
    plane: DataPlane
    platform: Optional[ServerlessPlatform] = None


def build_testbed(
    preset: str = "dgx-v100",
    num_nodes: int = 1,
    plane_name: str = "grouter",
    with_platform: bool = True,
    plane_kwargs: Optional[dict] = None,
    platform_kwargs: Optional[dict] = None,
) -> Testbed:
    """Construct env + cluster + plane (+ platform) in one call."""
    env = Environment()
    cluster = make_cluster(preset, num_nodes=num_nodes)
    plane = make_plane(plane_name, env, cluster, **(plane_kwargs or {}))
    platform = None
    if with_platform:
        platform = ServerlessPlatform(
            env, cluster, plane, **(platform_kwargs or {})
        )
    return Testbed(env=env, cluster=cluster, plane=plane, platform=platform)


def gpu_ctx(
    testbed: Testbed,
    node_index: int,
    gpu_index: int,
    model: str = "yolo-det",
    workflow_id: str = "wf-probe",
    slo_deadline: Optional[float] = None,
) -> FnContext:
    """A standalone GPU-function context for raw Put/Get probes."""
    node = testbed.cluster.nodes[node_index]
    instance = FunctionInstance(
        testbed.env,
        get_spec(model),
        node,
        gpu=node.gpu(gpu_index),
    )
    return FnContext(instance, workflow_id, "req-probe",
                     slo_deadline=slo_deadline)


def cpu_ctx(
    testbed: Testbed,
    node_index: int,
    model: str = "video-decode",
    workflow_id: str = "wf-probe",
) -> FnContext:
    node = testbed.cluster.nodes[node_index]
    instance = FunctionInstance(testbed.env, get_spec(model), node)
    return FnContext(instance, workflow_id, "req-probe")


def register_probe_workflow(plane: DataPlane,
                            workflow_id: str = "wf-probe") -> None:
    plane.acl.register_workflow(
        workflow_id,
        ["yolo-det", "person-rec", "car-rec", "video-decode",
         "gpu-denoise", "unet-seg", "gpu-preprocess"],
    )


def measure_put_get(
    testbed: Testbed,
    src: FnContext,
    dst: FnContext,
    size: float,
) -> dict:
    """One Put+Get; returns put/get/end-to-end latencies."""
    out: dict = {}

    def flow():
        t0 = testbed.env.now
        ref = yield testbed.plane.put(src, size)
        out["put"] = testbed.env.now - t0
        t1 = testbed.env.now
        yield testbed.plane.get(dst, ref)
        out["get"] = testbed.env.now - t1
        out["total"] = testbed.env.now - t0

    proc = testbed.env.process(flow())
    testbed.env.run()
    if not proc.ok:
        raise RuntimeError(f"probe transfer failed: {proc.value}")
    return out


# -- request-level attribution -------------------------------------------------

@dataclass
class PassingBreakdown:
    """Where a request's wall time went (paper Fig. 3 buckets)."""

    gfn_gfn: float = 0.0
    gfn_host: float = 0.0
    cfn_cfn: float = 0.0
    compute: float = 0.0

    @property
    def total(self) -> float:
        return self.gfn_gfn + self.gfn_host + self.cfn_cfn + self.compute

    @property
    def data_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return (self.gfn_gfn + self.gfn_host + self.cfn_cfn) / self.total


def breakdown_request(result: RequestResult, workflow: Workflow) -> PassingBreakdown:
    """Attribute a request's stage timings to Fig. 3's buckets."""
    out = PassingBreakdown()
    for name, record in result.stage_records.items():
        stage = workflow.stages[name]
        preds = workflow.predecessors(name)
        pred_gpu = any(
            workflow.stages[p].spec.is_gpu for p in preds
        )
        if stage.spec.is_gpu:
            # Entry stages read the host-resident ingress payload.
            if preds and pred_gpu:
                out.gfn_gfn += record.get_time
            else:
                out.gfn_host += record.get_time
        else:
            if preds and pred_gpu:
                out.gfn_host += record.get_time
            else:
                out.cfn_cfn += record.get_time
        succs = workflow.successors(name)
        succ_gpu = any(workflow.stages[s].spec.is_gpu for s in succs)
        # Exit stages account their egress drain to host separately
        # (record.egress_time); it lands in the same bucket the seed
        # engine put it in when it was folded into put_time.
        if stage.spec.is_gpu:
            if succs and succ_gpu:
                out.gfn_gfn += record.put_time
                out.gfn_host += record.egress_time
            else:
                out.gfn_host += record.put_time + record.egress_time
        else:
            if succs and succ_gpu:
                out.gfn_host += record.put_time
                out.cfn_cfn += record.egress_time
            else:
                out.cfn_cfn += record.put_time + record.egress_time
        out.compute += record.compute_time + record.cold_start
    return out


def mean_breakdown(results: Sequence[RequestResult],
                   workflow: Workflow) -> PassingBreakdown:
    agg = PassingBreakdown()
    for result in results:
        b = breakdown_request(result, workflow)
        agg.gfn_gfn += b.gfn_gfn
        agg.gfn_host += b.gfn_host
        agg.cfn_cfn += b.cfn_cfn
        agg.compute += b.compute
    n = max(len(results), 1)
    agg.gfn_gfn /= n
    agg.gfn_host /= n
    agg.cfn_cfn /= n
    agg.compute /= n
    return agg


# -- trace-driven runs ------------------------------------------------------------

def run_workload_on_plane(
    plane_name: str,
    workload_name: str,
    preset: str = "dgx-v100",
    num_nodes: int = 1,
    pattern: str = "bursty",
    rate: float = 4.0,
    duration: float = 20.0,
    batch: Optional[int] = None,
    seed: int = 0,
    plane_kwargs: Optional[dict] = None,
    placement: str = "mapa",
    replicas: int = 1,
    platform_kwargs: Optional[dict] = None,
) -> tuple[Testbed, list[RequestResult], WorkloadSpec]:
    """Deploy one workload, replay one trace, return the results.

    ``platform_kwargs`` passes straight through to
    :class:`~repro.platform.ServerlessPlatform`.
    """
    testbed = build_testbed(
        preset=preset,
        num_nodes=num_nodes,
        plane_name=plane_name,
        plane_kwargs=plane_kwargs,
        platform_kwargs={"placement": placement, **(platform_kwargs or {})},
    )
    workload = get_workload(workload_name)
    deployment = testbed.platform.deploy(
        workload, batch=batch, seed=seed, replicas=replicas
    )
    trace = make_trace(pattern, rate=rate, duration=duration, seed=seed)
    results = testbed.platform.run_trace(deployment, trace)
    return testbed, results, workload


def p99(values: Sequence[float]) -> float:
    return float(np.percentile(list(values), 99)) if values else float("nan")


def mean(values: Sequence[float]) -> float:
    return float(np.mean(list(values))) if values else float("nan")


# -- result table -------------------------------------------------------------

@dataclass
class ExperimentTable:
    """Rows + pretty formatting for one reproduced table/figure."""

    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def add(self, **row) -> None:
        self.rows.append(row)

    def format(self) -> str:
        widths = {
            c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows))
            if self.rows
            else len(c)
            for c in self.columns
        }
        lines = [f"== {self.name} =="]
        if self.notes:
            lines.append(self.notes)
        header = "  ".join(c.ljust(widths[c]) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(
                    _fmt(row.get(c)).ljust(widths[c]) for c in self.columns
                )
            )
        return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
