"""Topology-aware parallel NVLink path selection (paper §4.3.3, Alg. 1).

For weakly connected GPU pairs on asymmetric topologies, GROUTER
aggregates several loop-free NVLink paths.  The selection is
contention-aware: it prefers completely idle paths, stops once the
source's outgoing (or destination's incoming) NVLink capacity is
saturated, and only then considers busy paths for bandwidth balancing.

Candidates and NVLink egress capacities come from the node's interned
:class:`~repro.topology.routebook.NodeRouteBook`, which holds exactly
what :func:`~repro.topology.paths.nvlink_simple_paths` enumerates, in
the same order.  Link load is read live from the
:class:`~repro.net.network.FlowNetwork` at decision time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.network import FlowNetwork
from repro.net.transfer import Path
from repro.topology.devices import Gpu
from repro.topology.node import NodeTopology
from repro.topology.routebook import route_book

# A busy path is worth borrowing only if it still has a meaningful
# fraction of its bottleneck capacity unallocated.
_BUSY_RESIDUAL_FRACTION = 0.1


@dataclass
class PathSelection:
    """Result of Algorithm 1 for one transfer."""

    paths: list[Path] = field(default_factory=list)
    free_paths: int = 0
    balanced_paths: int = 0

    @property
    def aggregate_bandwidth(self) -> float:
        return sum(path.nominal_bandwidth for path in self.paths)


def _path_is_free(network: FlowNetwork, path: Path, used_link_ids: set) -> bool:
    for link in path.links:
        if link.link_id in used_link_ids:
            return False
        if network.flow_count_on(link):
            return False
    return True


def _path_min_residual(network: FlowNetwork, path: Path) -> float:
    return min(network.residual_on(link) for link in path.links)


def _overlaps(path: Path, used_link_ids: set) -> bool:
    return any(link.link_id in used_link_ids for link in path.links)


def select_parallel_nvlink_paths(
    node: NodeTopology,
    network: FlowNetwork,
    src: Gpu,
    dst: Gpu,
    max_hops: int = 3,
    max_paths: Optional[int] = None,
) -> PathSelection:
    """Algorithm 1: contention-aware parallel NVLink path selection.

    Returns the chosen disjoint paths.  Parallel transfers over them
    should split data proportionally to nominal bandwidth (the dynamic
    chunk sizing of §4.3.3), which :class:`~repro.net.TransferEngine`
    does automatically.
    """
    selection = PathSelection()
    book = route_book(node)
    candidates = book.nvlink_paths(src.index, dst.index, max_hops)
    if not candidates:
        return selection
    if node.has_nvswitch:
        # A non-blocking NVSwitch has exactly one sensible route; multi-
        # path logic only applies to mesh topologies.
        selection.paths.append(candidates[0])
        selection.free_paths = 1
        return selection

    saturation = min(book.out_capacity(src.index), book.out_capacity(dst.index))
    used_link_ids: set = set()
    chosen_bw = 0.0
    limit = max_paths if max_paths is not None else len(candidates)

    # Lines 1-7: consume free (fully idle, non-overlapping) paths,
    # shortest first, until src egress / dst ingress saturates.
    for path in candidates:
        if len(selection.paths) >= limit or chosen_bw >= saturation:
            break
        if _path_is_free(network, path, used_link_ids):
            selection.paths.append(path)
            selection.free_paths += 1
            used_link_ids.update(link.link_id for link in path.links)
            chosen_bw += path.nominal_bandwidth

    # Lines 8-14: if not saturated, balance bandwidth on busy paths that
    # still have useful residual capacity.
    if chosen_bw < saturation:
        busy = [
            path
            for path in candidates
            if not _overlaps(path, used_link_ids)
        ]
        busy.sort(key=lambda p: (p.hops, -_path_min_residual(network, p)))
        for path in busy:
            if len(selection.paths) >= limit or chosen_bw >= saturation:
                break
            residual = _path_min_residual(network, path)
            if residual < _BUSY_RESIDUAL_FRACTION * path.nominal_bandwidth:
                continue
            selection.paths.append(path)
            selection.balanced_paths += 1
            used_link_ids.update(link.link_id for link in path.links)
            chosen_bw += residual

    return selection


def best_single_nvlink_path(
    node: NodeTopology,
    network: FlowNetwork,
    src: Gpu,
    dst: Gpu,
    max_hops: int = 3,
) -> Optional[Path]:
    """The single best path by current residual bandwidth, if any."""
    candidates = route_book(node).nvlink_paths(src.index, dst.index, max_hops)
    if not candidates:
        return None
    return max(
        candidates,
        key=lambda p: (_path_min_residual(network, p), -p.hops),
    )
