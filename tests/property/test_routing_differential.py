"""Differential suite: book-mode routing == enumerate-mode routing.

The route-decision fast path (``REPRO_NET_ROUTING=book``: precomputed
route books + the O(1) contention index) must pick *bit-identical*
routes to the reference enumeration mode at every decision point, on
every topology preset, under concurrent link contention.  Each seed
builds a random contention pattern (flows started, advanced, and
cancelled mid-stream) and asserts every routing entry point returns
the same answer in both modes.
"""

import random

import pytest

from repro.common.errors import RoutingError, TopologyError
from repro.common.units import MB
from repro.net import FlowNetwork
from repro.routing.harvest import (
    parallel_nic_paths,
    pcie_host_paths,
    select_nic_routes,
    select_pcie_routes,
)
from repro.routing.nvlink import (
    best_single_nvlink_path,
    select_parallel_nvlink_paths,
)
from repro.sim import Environment
from repro.topology import make_cluster
from repro.topology.paths import (
    cross_node_gdr_path,
    gpu_to_host_path,
    nvlink_simple_paths,
)

N_SEEDS = 120
PRESETS = ("dgx-v100", "dgx-a100", "a10", "h800")
ALLOCATORS = ("incremental", "fullscan")


def _ids(path):
    return [link.link_id for link in path.links]


def _maybe_ids(path):
    return None if path is None else _ids(path)


def _outcome(fn):
    """Result or raised error type — both must match across modes.

    Topology-blind NIC harvesting can pick feeders with no NVLink hop to
    materialize; ``nic_route_path`` then raises in *either* mode, and the
    differential contract is that the modes agree on that too.
    """
    try:
        return ("ok", fn())
    except (RoutingError, TopologyError) as exc:
        return ("err", type(exc).__name__, str(exc))


def _contention_paths(rng, cluster):
    """Candidate paths a random workload might load with traffic."""
    node = cluster.nodes[0]
    gpus = node.gpus
    pool = []
    for _ in range(6):
        a, b = rng.sample(range(len(gpus)), 2)
        pool.extend(nvlink_simple_paths(node, gpus[a], gpus[b]))
    for idx in rng.sample(range(len(gpus)), min(3, len(gpus))):
        pool.append(gpu_to_host_path(node, gpus[idx]))
    if len(cluster.nodes) > 1:
        far = cluster.nodes[1]
        for _ in range(2):
            src = rng.choice(node.gpus)
            dst = rng.choice(far.gpus)
            pool.append(cross_node_gdr_path(cluster, src, dst))
    return pool


def _assert_decisions_identical(cluster, net, rng):
    node = cluster.nodes[0]
    gpus = node.gpus
    pairs = [rng.sample(range(len(gpus)), 2) for _ in range(4)]
    for a, b in pairs:
        src, dst = gpus[a], gpus[b]

        book = select_parallel_nvlink_paths(node, net, src, dst,
                                            routing="book")
        ref = select_parallel_nvlink_paths(node, net, src, dst,
                                           routing="enumerate")
        assert [_ids(p) for p in book.paths] == [_ids(p) for p in ref.paths]
        assert book.free_paths == ref.free_paths
        assert book.balanced_paths == ref.balanced_paths

        assert _maybe_ids(
            best_single_nvlink_path(node, net, src, dst, routing="book")
        ) == _maybe_ids(
            best_single_nvlink_path(node, net, src, dst, routing="enumerate")
        )

        for aware in (True, False):
            for network in (None, net):
                assert select_pcie_routes(
                    node, src, topology_aware=aware, network=network,
                    routing="book",
                ) == select_pcie_routes(
                    node, src, topology_aware=aware, network=network,
                    routing="enumerate",
                )
            routes = select_pcie_routes(node, src, topology_aware=aware,
                                        network=net, routing="book")
            for direction in ("to_host", "from_host"):
                assert [
                    _ids(p) for p in pcie_host_paths(
                        node, src, routes, direction, routing="book")
                ] == [
                    _ids(p) for p in pcie_host_paths(
                        node, src, routes, direction, routing="enumerate")
                ]

    if len(cluster.nodes) > 1:
        far = cluster.nodes[1]
        for _ in range(2):
            src = rng.choice(node.gpus)
            dst = rng.choice(far.gpus)
            for aware in (True, False):
                max_nics = rng.choice([None, 1, 2])
                assert select_nic_routes(
                    cluster, src, dst, topology_aware=aware,
                    max_nics=max_nics, routing="book",
                ) == select_nic_routes(
                    cluster, src, dst, topology_aware=aware,
                    max_nics=max_nics, routing="enumerate",
                )
                assert _outcome(lambda: [
                    _ids(p) for p in parallel_nic_paths(
                        cluster, src, dst, topology_aware=aware,
                        max_nics=max_nics, routing="book")
                ]) == _outcome(lambda: [
                    _ids(p) for p in parallel_nic_paths(
                        cluster, src, dst, topology_aware=aware,
                        max_nics=max_nics, routing="enumerate")
                ])


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_book_routing_identical_to_enumeration(seed):
    rng = random.Random(seed)
    preset = PRESETS[seed % len(PRESETS)]
    cluster = make_cluster(preset, num_nodes=2)
    env = Environment()
    net = FlowNetwork(env, allocator=ALLOCATORS[seed % len(ALLOCATORS)])

    # Idle-network decisions first (the warm-book common case).
    _assert_decisions_identical(cluster, net, random.Random(seed * 7 + 1))

    # Now build live contention and keep churning it: routing reads the
    # contention index mid-flight, exactly where staleness would show.
    pool = _contention_paths(rng, cluster)
    live = []
    for round_no in range(3):
        for _ in range(rng.randrange(2, 6)):
            path = rng.choice(pool)
            live.append(net.start_flow(path.links, rng.uniform(1, 64) * MB))
        _assert_decisions_identical(cluster, net, random.Random(seed + round_no))
        if live and rng.random() < 0.6:
            victim = live.pop(rng.randrange(len(live)))
            if not victim.done.triggered:
                net.cancel_flow(victim)
                victim.done.defuse()
            _assert_decisions_identical(
                cluster, net, random.Random(seed * 13 + round_no)
            )
        env.run(until=env.now + rng.uniform(1e-4, 5e-3))
        live = [f for f in live if not f.done.triggered]

    env.run()
    _assert_decisions_identical(cluster, net, random.Random(seed * 31))
