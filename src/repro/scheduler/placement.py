"""Function placement policies (paper §5, "Function scheduling").

GROUTER adopts MAPA [36] within a node: place communicating functions
on GPUs with the best interconnect between them.  Round-robin and
random placement serve as sensitivity baselines for the ablation
benches.  A placement maps each GPU stage of a workflow to a physical
GPU (CPU stages always run on their node's host).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.common.errors import SchedulingError
from repro.sim.core import Environment
from repro.telemetry.events import PlacementDecision
from repro.topology.cluster import ClusterTopology
from repro.topology.devices import Gpu
from repro.workflow.dag import Workflow


@dataclass
class PlacementResult:
    """stage name -> GPU device id (GPU stages only)."""

    assignment: dict[str, str] = field(default_factory=dict)

    def gpu_of(self, stage_name: str) -> str:
        try:
            return self.assignment[stage_name]
        except KeyError:
            raise SchedulingError(
                f"stage {stage_name!r} has no GPU assignment"
            ) from None


class PlacementPolicy(abc.ABC):
    """Strategy interface for placing a workflow's GPU stages."""

    name = "abstract"

    @abc.abstractmethod
    def place(
        self,
        workflow: Workflow,
        cluster: ClusterTopology,
        load: Optional[dict[str, int]] = None,
        allowed_gpus: Optional[Sequence[Gpu]] = None,
    ) -> PlacementResult:
        """Assign each GPU stage to a GPU.

        *load* counts instances already on each GPU (for balancing);
        *allowed_gpus* restricts candidates (e.g. to force cross-node
        placements in experiments).
        """

    def _candidates(
        self,
        cluster: ClusterTopology,
        allowed_gpus: Optional[Sequence[Gpu]],
    ) -> list[Gpu]:
        gpus = list(allowed_gpus) if allowed_gpus is not None else cluster.all_gpus()
        if not gpus:
            raise SchedulingError("no candidate GPUs for placement")
        return gpus


class RoundRobinPlacement(PlacementPolicy):
    """Cycle through GPUs in index order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def place(self, workflow, cluster, load=None, allowed_gpus=None):
        gpus = self._candidates(cluster, allowed_gpus)
        result = PlacementResult()
        for stage in workflow.topological_order():
            if not stage.spec.is_gpu:
                continue
            gpu = gpus[self._next % len(gpus)]
            self._next += 1
            result.assignment[stage.name] = gpu.device_id
        return result


class RandomPlacement(PlacementPolicy):
    """Uniform random placement (seeded)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def place(self, workflow, cluster, load=None, allowed_gpus=None):
        gpus = self._candidates(cluster, allowed_gpus)
        result = PlacementResult()
        for stage in workflow.topological_order():
            if not stage.spec.is_gpu:
                continue
            result.assignment[stage.name] = self._rng.choice(gpus).device_id
        return result


class MapaPlacement(PlacementPolicy):
    """Interconnect-aware placement: maximize NVLink between neighbours.

    Stages are placed in topological order; each GPU stage goes to the
    candidate with the highest total NVLink capacity to its already
    placed predecessors, breaking ties toward the least-loaded GPU.
    """

    name = "mapa"

    def place(self, workflow, cluster, load=None, allowed_gpus=None):
        gpus = self._candidates(cluster, allowed_gpus)
        load = dict(load) if load is not None else {}
        result = PlacementResult()
        for stage in workflow.topological_order():
            if not stage.spec.is_gpu:
                continue
            placed_preds = [
                result.assignment[p]
                for p in workflow.predecessors(stage.name)
                if p in result.assignment
            ]
            best = None
            best_key = None
            for gpu in gpus:
                node = cluster.node_of_device(gpu.device_id)
                link_score = 0.0
                for pred_device in placed_preds:
                    if not cluster.same_node(gpu.device_id, pred_device):
                        continue
                    pred_gpu = cluster.gpu(pred_device)
                    if pred_gpu.device_id == gpu.device_id:
                        # Same-GPU co-location: zero-copy exchange, the
                        # best interconnect there is — but it serializes
                        # execution, so score it like a top NVLink.
                        link_score += node.nvlink_capacity(0, 1) or 1e9
                        continue
                    link_score += node.nvlink_capacity(
                        pred_gpu.index, gpu.index
                    )
                key = (-link_score, load.get(gpu.device_id, 0), gpu.device_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best = gpu
            assert best is not None
            result.assignment[stage.name] = best.device_id
            load[best.device_id] = load.get(best.device_id, 0) + 1
        return result


def publish_placement(
    env: Environment,
    policy: PlacementPolicy,
    workflow: Workflow,
    result: PlacementResult,
) -> None:
    """Publish one placement decision on *env*'s telemetry bus.

    Policies themselves are time-free (they see only topology and
    load), so the caller that owns the environment — the platform's
    deploy path — reports the decision.
    """
    bus = env.telemetry
    if bus is not None:
        bus.publish(PlacementDecision(
            env.now, policy.name, workflow.name,
            tuple(sorted(result.assignment.items())),
        ))


POLICIES = {
    RoundRobinPlacement.name: RoundRobinPlacement,
    RandomPlacement.name: RandomPlacement,
    MapaPlacement.name: MapaPlacement,
}


def make_placement(name: str, **kwargs) -> PlacementPolicy:
    """Instantiate a placement policy by name."""
    try:
        return POLICIES[name](**kwargs)
    except KeyError:
        raise SchedulingError(
            f"unknown placement policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
