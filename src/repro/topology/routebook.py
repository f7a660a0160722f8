"""Interned candidate-path books over immutable topologies.

Topology objects never change after construction, so the candidate
paths a routing decision considers — NVLink simple paths from a
networkx DFS (:func:`repro.topology.paths.nvlink_simple_paths`), PCIe
host and peer-to-peer paths, cross-node GDR and host-to-host paths —
are static facts of the topology.  A *route book* computes each table
once per :class:`~repro.topology.node.NodeTopology` /
:class:`~repro.topology.cluster.ClusterTopology`, on first access, and
interns the resulting :class:`~repro.net.transfer.Path` objects, so
repeated decisions share one immutable path set.

Correctness contract: every book entry is produced by calling the exact
enumeration code in :mod:`repro.topology.paths`, so results — including
the deterministic ``(hops, -bottleneck, lex)`` ordering of NVLink
candidates — equal what a per-decision enumeration would build.
``tests/property/test_routing_differential.py`` checks this by running
every routing selector against the books and against a stand-in that
re-enumerates on each access.

Higher layers (``repro.routing``) stash their derived route tables in
the open ``extras`` dict so their caches share the book's lifetime
without this module importing routing policy.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.net.transfer import Path
from repro.topology.cluster import ClusterTopology
from repro.topology.node import NodeTopology
from repro.topology.paths import (
    cross_node_gdr_path,
    gpu_p2p_pcie_path,
    gpu_to_host_path,
    host_to_gpu_path,
    host_to_host_path,
    nvlink_direct_path,
    nvlink_graph,
    nvlink_simple_paths,
)

__all__ = [
    "NodeRouteBook",
    "ClusterRouteBook",
    "route_book",
    "cluster_route_book",
]

# Default DFS depth of NVLink candidate paths across the routing layer.
DEFAULT_MAX_HOPS = 3

_MISS = object()


class NodeRouteBook:
    """Interned candidate-path tables for one node topology."""

    __slots__ = (
        "node",
        "extras",
        "_graph",
        "_nvlink_paths",
        "_nvlink_direct",
        "_host_paths",
        "_p2p",
        "_out_capacity",
        "__weakref__",
    )

    def __init__(self, node: NodeTopology) -> None:
        self.node = node
        # Open key-value store for higher layers (repro.routing) to
        # memoize derived route tables with the book's lifetime.
        self.extras: dict = {}
        self._graph = None  # lazily built mesh NVLink DiGraph
        self._nvlink_paths: dict = {}  # (src_idx, dst_idx, max_hops) -> tuple[Path]
        self._nvlink_direct: dict = {}  # (src_idx, dst_idx) -> Optional[Path]
        self._host_paths: dict = {}  # (gpu_idx, direction) -> Path
        self._p2p: dict = {}  # (src_idx, dst_idx) -> Path
        self._out_capacity: dict = {}  # gpu_idx -> float

    # -- NVLink ---------------------------------------------------------
    def _mesh_graph(self):
        graph = self._graph
        if graph is None:
            graph = self._graph = nvlink_graph(self.node)
        return graph

    def nvlink_paths(
        self, src_idx: int, dst_idx: int, max_hops: int = DEFAULT_MAX_HOPS
    ) -> tuple[Path, ...]:
        """Loop-free NVLink candidates, same order as the enumeration."""
        key = (src_idx, dst_idx, max_hops)
        paths = self._nvlink_paths.get(key)
        if paths is None:
            node = self.node
            graph = None if node.has_nvswitch else self._mesh_graph()
            paths = tuple(
                nvlink_simple_paths(
                    node,
                    node.gpu(src_idx),
                    node.gpu(dst_idx),
                    max_hops=max_hops,
                    graph=graph,
                )
            )
            self._nvlink_paths[key] = paths
        return paths

    def nvlink_direct(self, src_idx: int, dst_idx: int) -> Optional[Path]:
        key = (src_idx, dst_idx)
        path = self._nvlink_direct.get(key, _MISS)
        if path is _MISS:
            node = self.node
            path = nvlink_direct_path(node, node.gpu(src_idx), node.gpu(dst_idx))
            self._nvlink_direct[key] = path
        return path

    def out_capacity(self, gpu_idx: int) -> float:
        """Total NVLink egress capacity of one GPU (static)."""
        cap = self._out_capacity.get(gpu_idx)
        if cap is None:
            node = self.node
            cap = sum(
                node.nvlink_capacity(gpu_idx, peer)
                for peer in node.nvlink_neighbors(gpu_idx)
            )
            self._out_capacity[gpu_idx] = cap
        return cap

    # -- PCIe -----------------------------------------------------------
    def gpu_to_host(self, gpu_idx: int) -> Path:
        key = (gpu_idx, "to_host")
        path = self._host_paths.get(key)
        if path is None:
            path = gpu_to_host_path(self.node, self.node.gpu(gpu_idx))
            self._host_paths[key] = path
        return path

    def host_to_gpu(self, gpu_idx: int) -> Path:
        key = (gpu_idx, "from_host")
        path = self._host_paths.get(key)
        if path is None:
            path = host_to_gpu_path(self.node, self.node.gpu(gpu_idx))
            self._host_paths[key] = path
        return path

    def gpu_p2p(self, src_idx: int, dst_idx: int) -> Path:
        key = (src_idx, dst_idx)
        path = self._p2p.get(key)
        if path is None:
            node = self.node
            path = gpu_p2p_pcie_path(node, node.gpu(src_idx), node.gpu(dst_idx))
            self._p2p[key] = path
        return path


class ClusterRouteBook:
    """Interned cross-node path tables plus per-node books."""

    __slots__ = ("cluster", "extras", "_node_books", "_gdr", "_h2h", "__weakref__")

    def __init__(self, cluster: ClusterTopology) -> None:
        self.cluster = cluster
        self.extras: dict = {}
        # Share the per-node singletons: intra-node decisions made via
        # route_book(node) and cross-node ones made here hit one book.
        self._node_books = {
            node.node_id: route_book(node) for node in cluster.nodes
        }
        self._gdr: dict = {}  # (src_dev, dst_dev) -> Path
        self._h2h: dict = {}  # (src_node, dst_node) -> Path

    def node_book(self, node_id: str) -> NodeRouteBook:
        return self._node_books[node_id]

    def gdr_path(self, src_dev: str, dst_dev: str) -> Path:
        """Default GPUDirect-RDMA path between two cross-node GPUs."""
        key = (src_dev, dst_dev)
        path = self._gdr.get(key)
        if path is None:
            cluster = self.cluster
            path = cross_node_gdr_path(
                cluster, cluster.gpu(src_dev), cluster.gpu(dst_dev)
            )
            self._gdr[key] = path
        return path

    def host_to_host(self, src_node_id: str, dst_node_id: str) -> Path:
        key = (src_node_id, dst_node_id)
        path = self._h2h.get(key)
        if path is None:
            cluster = self.cluster
            path = host_to_host_path(
                cluster, cluster.node(src_node_id), cluster.node(dst_node_id)
            )
            self._h2h[key] = path
        return path


# One book per live topology object; books die with their topology.
_NODE_BOOKS: "weakref.WeakKeyDictionary[NodeTopology, NodeRouteBook]" = (
    weakref.WeakKeyDictionary()
)
_CLUSTER_BOOKS: "weakref.WeakKeyDictionary[ClusterTopology, ClusterRouteBook]" = (
    weakref.WeakKeyDictionary()
)


def route_book(node: NodeTopology) -> NodeRouteBook:
    """The (lazily filled) route book for *node*; one per topology."""
    book = _NODE_BOOKS.get(node)
    if book is None:
        book = NodeRouteBook(node)
        _NODE_BOOKS[node] = book
    return book


def cluster_route_book(cluster: ClusterTopology) -> ClusterRouteBook:
    """The route book for *cluster*; per-node books ride along."""
    book = _CLUSTER_BOOKS.get(cluster)
    if book is None:
        book = ClusterRouteBook(cluster)
        _CLUSTER_BOOKS[cluster] = book
    return book
