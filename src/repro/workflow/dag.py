"""Workflow DAGs (paper §2.1, Fig. 12).

A workflow is a DAG of named stages; edges carry how much of the
upstream output flows downstream (``fraction``, for fan-out splits such
as person/vehicle crops) and an execution ``probability`` (for the
conditional-branch pattern).  ``fraction=1.0`` on several out-edges
models broadcast fan-out (every classifier in an ensemble reads the
whole image).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.common.errors import WorkflowError
from repro.functions.spec import FunctionSpec


@dataclass(frozen=True)
class Stage:
    """One node of a workflow DAG."""

    name: str
    spec: FunctionSpec


@dataclass(frozen=True)
class Edge:
    """A data dependency between two stages."""

    src: str
    dst: str
    fraction: float = 1.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise WorkflowError(
                f"edge {self.src}->{self.dst}: fraction must be in (0, 1]"
            )
        if not 0.0 < self.probability <= 1.0:
            raise WorkflowError(
                f"edge {self.src}->{self.dst}: probability must be in (0, 1]"
            )


class Workflow:
    """A validated DAG of stages.

    A workflow is immutable once built, so every structural query is
    answered from orders and adjacency lists computed once here; each
    call returns a fresh list.
    """

    def __init__(self, name: str, stages: list[Stage], edges: list[Edge]) -> None:
        if not stages:
            raise WorkflowError(f"workflow {name!r} has no stages")
        self.name = name
        self.stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise WorkflowError(f"duplicate stage name {stage.name!r}")
            self.stages[stage.name] = stage
        self.edges = list(edges)
        graph = nx.DiGraph()
        graph.add_nodes_from(self.stages)
        self._edge_map: dict[tuple[str, str], Edge] = {}
        for edge in self.edges:
            for endpoint in (edge.src, edge.dst):
                if endpoint not in self.stages:
                    raise WorkflowError(
                        f"edge references unknown stage {endpoint!r}"
                    )
            if graph.has_edge(edge.src, edge.dst):
                raise WorkflowError(f"duplicate edge {edge.src}->{edge.dst}")
            graph.add_edge(edge.src, edge.dst)
            self._edge_map[edge.src, edge.dst] = edge
        if not nx.is_directed_acyclic_graph(graph):
            raise WorkflowError(f"workflow {name!r} contains a cycle")
        self._order = tuple(
            self.stages[n] for n in nx.lexicographical_topological_sort(graph)
        )
        self._entry = tuple(
            self.stages[n] for n in graph.nodes if graph.in_degree(n) == 0
        )
        self._exit = tuple(
            self.stages[n] for n in graph.nodes if graph.out_degree(n) == 0
        )
        self._preds = {n: tuple(sorted(graph.predecessors(n))) for n in graph}
        self._succs = {n: tuple(sorted(graph.successors(n))) for n in graph}
        self._in_edges = {
            n: tuple(self._edge_map[s, n] for s in preds)
            for n, preds in self._preds.items()
        }
        self._out_edges = {
            n: tuple(self._edge_map[n, d] for d in succs)
            for n, succs in self._succs.items()
        }

    # -- structure ---------------------------------------------------------
    @property
    def entry_stages(self) -> list[Stage]:
        """Stages with no predecessors (receive the request input)."""
        return list(self._entry)

    @property
    def exit_stages(self) -> list[Stage]:
        """Stages with no successors (produce the response)."""
        return list(self._exit)

    def topological_order(self) -> list[Stage]:
        return list(self._order)

    def predecessors(self, stage_name: str) -> list[str]:
        return list(self._of_stage(self._preds, stage_name))

    def successors(self, stage_name: str) -> list[str]:
        return list(self._of_stage(self._succs, stage_name))

    def edge(self, src: str, dst: str) -> Edge:
        try:
            return self._edge_map[src, dst]
        except KeyError:
            raise WorkflowError(f"no edge {src}->{dst}") from None

    def in_edges(self, stage_name: str) -> list[Edge]:
        return list(self._of_stage(self._in_edges, stage_name))

    def out_edges(self, stage_name: str) -> list[Edge]:
        return list(self._of_stage(self._out_edges, stage_name))

    @staticmethod
    def _of_stage(table: dict[str, tuple], stage_name: str) -> tuple:
        try:
            return table[stage_name]
        except KeyError:
            raise WorkflowError(f"unknown stage {stage_name!r}") from None

    # -- composition helpers -------------------------------------------------
    def gpu_stages(self) -> list[Stage]:
        return [s for s in self.stages.values() if s.spec.is_gpu]

    def cpu_stages(self) -> list[Stage]:
        return [s for s in self.stages.values() if not s.spec.is_gpu]

    def function_names(self) -> list[str]:
        """Distinct function (stage) names, for ACL registration."""
        return sorted(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def __repr__(self) -> str:
        return (
            f"<Workflow {self.name} stages={len(self.stages)} "
            f"edges={len(self.edges)}>"
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A workflow plus the request-input model used in the evaluation."""

    workflow: Workflow
    input_per_item: float  # request input bytes per batch item
    default_batch: int = 8
    description: str = ""

    def input_size(self, batch: int | None = None) -> float:
        n = batch if batch is not None else self.default_batch
        return self.input_per_item * n
