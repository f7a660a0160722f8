"""Differential suite: route books == per-decision enumeration.

Routing answers every decision from interned route books
(:mod:`repro.topology.routebook`) plus live link-load reads from the
flow network.  This suite runs every selector twice at each decision
point: once against the real books, and once with the books replaced
by a stand-in that calls :mod:`repro.topology.paths` on every access
and keeps nothing between calls.  Both runs must give identical
answers, or raise identical errors.  Each seed builds a random
contention pattern (flows started, advanced and cancelled mid-stream)
on one of four presets under either allocator, so a stale book entry
or a colliding cache key fails with the seed and the decision named.
"""

import random

import pytest

from repro.common.errors import RoutingError, TopologyError
from repro.common.units import MB
from repro.net import FlowNetwork
from repro.routing import harvest, nvlink
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
    gpu_p2p_pcie_path,
    gpu_to_host_path,
    host_to_gpu_path,
    host_to_host_path,
    nvlink_simple_paths,
)

N_SEEDS = 120
PRESETS = ("dgx-v100", "dgx-a100", "a10", "h800")
ALLOCATORS = ("incremental", "fullscan")


class _EnumeratingNodeBook:
    """``NodeRouteBook`` stand-in that re-enumerates on every access.

    It covers the whole table interface, not only what today's
    selectors read, so a selector that starts using another table is
    still checked against the enumeration.
    """

    def __init__(self, node):
        self.node = node

    @property
    def extras(self):
        return {}  # a fresh dict: no derived table survives a call

    def nvlink_paths(self, src_idx, dst_idx, max_hops=3):
        node = self.node
        return nvlink_simple_paths(
            node, node.gpu(src_idx), node.gpu(dst_idx), max_hops=max_hops
        )

    def out_capacity(self, gpu_idx):
        node = self.node
        return sum(
            node.nvlink_capacity(gpu_idx, peer)
            for peer in node.nvlink_neighbors(gpu_idx)
        )

    def gpu_to_host(self, gpu_idx):
        return gpu_to_host_path(self.node, self.node.gpu(gpu_idx))

    def host_to_gpu(self, gpu_idx):
        return host_to_gpu_path(self.node, self.node.gpu(gpu_idx))

    def gpu_p2p(self, src_idx, dst_idx):
        node = self.node
        return gpu_p2p_pcie_path(node, node.gpu(src_idx), node.gpu(dst_idx))


class _EnumeratingClusterBook:
    """``ClusterRouteBook`` stand-in that re-enumerates on every access."""

    def __init__(self, cluster):
        self.cluster = cluster

    @property
    def extras(self):
        return {}

    def gdr_path(self, src_dev, dst_dev):
        cluster = self.cluster
        return cross_node_gdr_path(
            cluster, cluster.gpu(src_dev), cluster.gpu(dst_dev)
        )

    def host_to_host(self, src_node_id, dst_node_id):
        cluster = self.cluster
        return host_to_host_path(
            cluster, cluster.node(src_node_id), cluster.node(dst_node_id)
        )


def _ids(path):
    return None if path is None else [link.link_id for link in path.links]


def _outcome(fn):
    """Result or raised error; both runs must agree on either.

    Topology-blind NIC harvesting can pick feeders with no NVLink hop to
    materialize; ``nic_route_path`` then raises, and it must raise the
    same error whether the lanes come from a book or not.
    """
    try:
        return ("ok", fn())
    except (RoutingError, TopologyError) as exc:
        return ("err", type(exc).__name__, str(exc))


def _decisions(cluster, net, rng):
    """Every selector's answer at one decision point, labelled."""
    node = cluster.nodes[0]
    gpus = node.gpus
    decisions = []

    def record(label, fn):
        decisions.append((label, _outcome(fn)))

    for a, b in [rng.sample(range(len(gpus)), 2) for _ in range(4)]:
        src, dst = gpus[a], gpus[b]
        pair = f"{src.device_id}->{dst.device_id}"

        def algorithm1():
            sel = select_parallel_nvlink_paths(node, net, src, dst)
            paths = [_ids(p) for p in sel.paths]
            return paths, sel.free_paths, sel.balanced_paths

        record(f"select_parallel_nvlink_paths {pair}", algorithm1)
        record(
            f"best_single_nvlink_path {pair}",
            lambda: _ids(best_single_nvlink_path(node, net, src, dst)),
        )
        for aware in (True, False):
            for network in (None, net):
                record(
                    f"select_pcie_routes {src.device_id} aware={aware} "
                    f"network={network is not None}",
                    lambda: select_pcie_routes(
                        node, src, topology_aware=aware, network=network
                    ),
                )
            routes = select_pcie_routes(
                node, src, topology_aware=aware, network=net
            )
            for direction in ("to_host", "from_host"):
                record(
                    f"pcie_host_paths {src.device_id} aware={aware} "
                    f"{direction}",
                    lambda: [
                        _ids(p)
                        for p in pcie_host_paths(node, src, routes, direction)
                    ],
                )

    if len(cluster.nodes) > 1:
        far = cluster.nodes[1]
        for _ in range(2):
            src = rng.choice(node.gpus)
            dst = rng.choice(far.gpus)
            for aware in (True, False):
                max_nics = rng.choice([None, 1, 2])
                lane = (
                    f"{src.device_id}->{dst.device_id} aware={aware} "
                    f"max_nics={max_nics}"
                )
                record(
                    f"select_nic_routes {lane}",
                    lambda: select_nic_routes(
                        cluster, src, dst, topology_aware=aware,
                        max_nics=max_nics,
                    ),
                )
                record(
                    f"parallel_nic_paths {lane}",
                    lambda: [
                        _ids(p)
                        for p in parallel_nic_paths(
                            cluster, src, dst, topology_aware=aware,
                            max_nics=max_nics,
                        )
                    ],
                )
    return decisions


def _assert_decisions_identical(cluster, net, rng_seed, point, monkeypatch):
    booked = _decisions(cluster, net, random.Random(rng_seed))
    with monkeypatch.context() as patch:
        patch.setattr(nvlink, "route_book", _EnumeratingNodeBook)
        patch.setattr(harvest, "route_book", _EnumeratingNodeBook)
        patch.setattr(harvest, "cluster_route_book", _EnumeratingClusterBook)
        enumerated = _decisions(cluster, net, random.Random(rng_seed))
    assert [label for label, _ in booked] == [label for label, _ in enumerated]
    for (label, got), (_, want) in zip(booked, enumerated):
        assert got == want, (
            f"{point}: {label}: books gave {got!r}, "
            f"enumeration gave {want!r}"
        )


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


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_book_routing_identical_to_enumeration(seed, monkeypatch):
    rng = random.Random(seed)
    preset = PRESETS[seed % len(PRESETS)]
    cluster = make_cluster(preset, num_nodes=2)
    env = Environment()
    net = FlowNetwork(env, allocator=ALLOCATORS[seed % len(ALLOCATORS)])

    def check(point, rng_seed):
        _assert_decisions_identical(
            cluster, net, rng_seed, f"seed {seed} ({preset}), {point}",
            monkeypatch,
        )

    # Idle-network decisions first: this is where the books fill.
    check("idle network", seed * 7 + 1)

    # Now build live contention and keep churning it: the selectors
    # read link load mid-flight, where a stale entry would show.
    pool = _contention_paths(rng, cluster)
    live = []
    for round_no in range(3):
        for _ in range(rng.randrange(2, 6)):
            path = rng.choice(pool)
            live.append(net.start_flow(path.links, rng.uniform(1, 64) * MB))
        check(f"round {round_no} after starts", seed + round_no)
        if live and rng.random() < 0.6:
            victim = live.pop(rng.randrange(len(live)))
            if not victim.done.triggered:
                net.cancel_flow(victim)
                victim.done.defuse()
            check(f"round {round_no} after a cancel", seed * 13 + round_no)
        env.run(until=env.now + rng.uniform(1e-4, 5e-3))
        live = [f for f in live if not f.done.triggered]

    env.run()
    check("drained network", seed * 31)
