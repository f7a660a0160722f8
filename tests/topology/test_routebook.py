"""Route books: interned path tables equal to fresh enumeration."""

import itertools

import pytest

from repro.topology import make_cluster
from repro.topology.paths import (
    cross_node_gdr_path,
    gpu_p2p_pcie_path,
    gpu_to_host_path,
    host_to_gpu_path,
    host_to_host_path,
    nvlink_direct_path,
    nvlink_simple_paths,
)
from repro.topology.routebook import cluster_route_book, route_book

PRESETS = ("dgx-v100", "dgx-a100", "a10", "h800")


def _link_ids(path):
    return [link.link_id for link in path.links]


@pytest.mark.parametrize("preset", PRESETS)
def test_nvlink_tables_match_enumeration(preset):
    node = make_cluster(preset).nodes[0]
    book = route_book(node)
    for a, b in itertools.permutations(range(len(node.gpus)), 2):
        src, dst = node.gpu(a), node.gpu(b)
        expected = nvlink_simple_paths(node, src, dst)
        got = book.nvlink_paths(a, b)
        assert [_link_ids(p) for p in got] == [_link_ids(p) for p in expected]
        direct = nvlink_direct_path(node, src, dst)
        if direct is None:
            assert book.nvlink_direct(a, b) is None
        else:
            assert _link_ids(book.nvlink_direct(a, b)) == _link_ids(direct)


@pytest.mark.parametrize("preset", PRESETS)
def test_pcie_tables_match_enumeration(preset):
    node = make_cluster(preset).nodes[0]
    book = route_book(node)
    for idx in range(len(node.gpus)):
        gpu = node.gpu(idx)
        assert _link_ids(book.gpu_to_host(idx)) == _link_ids(
            gpu_to_host_path(node, gpu)
        )
        assert _link_ids(book.host_to_gpu(idx)) == _link_ids(
            host_to_gpu_path(node, gpu)
        )
    for a, b in itertools.permutations(range(len(node.gpus)), 2):
        assert _link_ids(book.gpu_p2p(a, b)) == _link_ids(
            gpu_p2p_pcie_path(node, node.gpu(a), node.gpu(b))
        )


@pytest.mark.parametrize("preset", PRESETS)
def test_out_capacity_matches_sum(preset):
    node = make_cluster(preset).nodes[0]
    book = route_book(node)
    for idx in range(len(node.gpus)):
        expected = sum(
            node.nvlink_capacity(idx, peer)
            for peer in node.nvlink_neighbors(idx)
        )
        assert book.out_capacity(idx) == expected


def test_paths_are_interned_identity():
    node = make_cluster("dgx-v100").nodes[0]
    book = route_book(node)
    first = book.nvlink_paths(0, 3)
    assert book.nvlink_paths(0, 3) is first
    assert book.gpu_to_host(2) is book.gpu_to_host(2)
    assert book.gpu_p2p(1, 5) is book.gpu_p2p(1, 5)


def test_route_book_is_singleton_per_topology():
    cluster = make_cluster("dgx-v100", num_nodes=2)
    node = cluster.nodes[0]
    assert route_book(node) is route_book(node)
    # A different topology object gets a different book, even for the
    # same preset.
    other = make_cluster("dgx-v100").nodes[0]
    assert route_book(other) is not route_book(node)


def test_cluster_book_shares_node_books():
    cluster = make_cluster("dgx-a100", num_nodes=2)
    cbook = cluster_route_book(cluster)
    assert cluster_route_book(cluster) is cbook
    for node in cluster.nodes:
        assert cbook.node_book(node.node_id) is route_book(node)


def test_cluster_tables_match_enumeration():
    cluster = make_cluster("dgx-v100", num_nodes=2)
    cbook = cluster_route_book(cluster)
    a, b = cluster.nodes
    assert _link_ids(cbook.host_to_host(a.node_id, b.node_id)) == _link_ids(
        host_to_host_path(cluster, a, b)
    )
    src, dst = a.gpus[0], b.gpus[3]
    assert _link_ids(
        cbook.gdr_path(src.device_id, dst.device_id)
    ) == _link_ids(cross_node_gdr_path(cluster, src, dst))


def test_warm_book_serves_without_new_enumeration(monkeypatch):
    """A table entry filled by first access is served from then on."""
    import repro.topology.routebook as rb

    cluster = make_cluster("dgx-v100", num_nodes=2)
    near, far = cluster.nodes
    cbook = cluster_route_book(cluster)
    book = cbook.node_book(near.node_id)
    n = len(near.gpus)

    def access():
        served = []
        for x, y in itertools.permutations(range(n), 2):
            served += [
                book.nvlink_paths(x, y),
                book.nvlink_direct(x, y),
                book.gpu_p2p(x, y),
            ]
        for idx in range(n):
            served += [book.gpu_to_host(idx), book.host_to_gpu(idx)]
        for src in near.gpus:
            for dst in far.gpus:
                served.append(cbook.gdr_path(src.device_id, dst.device_id))
        served.append(cbook.host_to_host(near.node_id, far.node_id))
        return served

    first = access()

    def _boom(*args, **kwargs):  # pragma: no cover - should never run
        raise AssertionError("filled book re-enumerated")

    for name in (
        "nvlink_graph",
        "nvlink_simple_paths",
        "nvlink_direct_path",
        "gpu_to_host_path",
        "host_to_gpu_path",
        "gpu_p2p_pcie_path",
        "cross_node_gdr_path",
        "host_to_host_path",
    ):
        monkeypatch.setattr(rb, name, _boom)
    second = access()
    assert len(second) == len(first)
    assert all(a is b for a, b in zip(first, second))
