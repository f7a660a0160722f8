"""Fig. 12 — the evaluation workflow suite.

The paper's Fig. 12 catalogs the six real-world inference workflows and
their DAG patterns (sequence, condition, fan-in, fan-out).  This module
reproduces it as a structural table.
"""

from __future__ import annotations

from repro.common.units import MB
from repro.experiments.harness import ExperimentTable
from repro.llm.moa import MoaConfig
from repro.workflow import WORKLOADS, get_workload


def _patterns(workflow) -> list[str]:
    found = set()
    names = list(workflow.stages)
    out_degrees = [len(workflow.successors(n)) for n in names]
    in_degrees = [len(workflow.predecessors(n)) for n in names]
    if max(out_degrees) <= 1 and max(in_degrees) <= 1:
        found.add("sequence")
    if max(out_degrees) > 1:
        found.add("fan-out")
    if max(in_degrees) > 1:
        found.add("fan-in")
    if any(e.probability < 1.0 for e in workflow.edges):
        found.add("condition")
    return sorted(found)


def run() -> ExperimentTable:
    """Structural summary of the suite (plus MoA from the LLM layer)."""
    table = ExperimentTable(
        name="Fig 12: real-world inference workflow suite",
        columns=["workflow", "stages", "gpu", "cpu", "edges", "patterns",
                 "input_mb_per_item"],
    )
    for name in WORKLOADS:
        spec = get_workload(name)
        workflow = spec.workflow
        table.add(
            workflow=name,
            stages=len(workflow),
            gpu=len(workflow.gpu_stages()),
            cpu=len(workflow.cpu_stages()),
            edges=len(workflow.edges),
            patterns="+".join(_patterns(workflow)),
            input_mb_per_item=spec.input_per_item / MB,
        )
    moa = MoaConfig()
    table.add(
        workflow="moa (repro.llm)",
        stages=moa.layers * moa.agents_per_layer,
        gpu=moa.layers * moa.agents_per_layer,
        cpu=0,
        edges=(moa.layers - 1) * moa.agents_per_layer ** 2,
        patterns="fan-in+fan-out",
        input_mb_per_item=None,
    )
    return table

