"""Route-GPU selection for PCIe and NIC bandwidth harvesting (§3.2, §4.3.1).

*PCIe harvesting*: a gFn-host transfer can borrow idle PCIe uplinks of
peer GPUs by first hopping to them over NVLink.  Topology-aware
selection (GROUTER) only borrows peers that (a) have a direct NVLink to
the source and (b) sit on a *different* PCIe switch — peers behind the
same switch share the uplink and add nothing.  The naive variant
(DeepPlan+) borrows one peer per switch regardless of NVLink
connectivity; NVLink-less peers are reached over PCIe peer-to-peer,
which crosses the source's own uplink twice and congests it.

*NIC harvesting*: a cross-node transfer can fan out over several NICs
by staging chunks on route GPUs near each NIC, mirrored on the
receiving node ("corresponding GPUs", Fig. 9(a)).

The static half of every decision (per-switch borrow candidates,
borrowed-uplink paths, NIC lanes) is interned on the topology's route
book (:mod:`repro.topology.routebook`) on first use; only the
uplink-busy check reads live network state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import RoutingError
from repro.net.network import FlowNetwork
from repro.net.transfer import Path
from repro.topology.cluster import ClusterTopology
from repro.topology.devices import FABRIC_ID, Gpu, Nic
from repro.topology.node import NodeTopology
from repro.topology.paths import gpu_to_nic_links, nic_to_gpu_links
from repro.topology.routebook import cluster_route_book, route_book


@dataclass(frozen=True)
class PcieRoute:
    """One borrowed PCIe uplink: the route GPU and whether NVLink feeds it."""

    route_gpu: Gpu
    via_nvlink: bool


def _nvlink_hop_links(node: NodeTopology, src: Gpu, dst: Gpu) -> list:
    """Links of the direct NVLink hop (or NVSwitch hub hop)."""
    if node.has_nvswitch:
        return [
            node.link(src.device_id, node.nvswitch_id),
            node.link(node.nvswitch_id, dst.device_id),
        ]
    return [node.link(src.device_id, dst.device_id)]


def _has_nvlink(node: NodeTopology, a: Gpu, b: Gpu) -> bool:
    return node.nvlink_capacity(a.index, b.index) > 0


def _pcie_switch_table(node: NodeTopology, gpu: Gpu) -> tuple:
    """Static per-switch candidates for :func:`select_pcie_routes`.

    One entry per foreign PCIe switch, in ``node.switches`` order:
    ``(uplink, aware_route, naive_route)`` where *aware_route* is the
    NVLink-fed borrow (or ``None``) and *naive_route* the DeepPlan+
    fallback.  Cached on the node's route book; only the uplink-busy
    check remains dynamic.
    """
    book = route_book(node)
    key = ("pcie_switch_table", gpu.index)
    table = book.extras.get(key)
    if table is None:
        my_switch = node.switch_of(gpu)
        entries = []
        for switch in node.switches:
            if switch.device_id == my_switch:
                continue  # shares my uplink; borrowing it gains nothing
            uplink = node.link(switch.device_id, node.host.device_id)
            group = node.gpus_on_switch(switch.device_id)
            linked = [peer for peer in group if _has_nvlink(node, gpu, peer)]
            aware = (
                PcieRoute(route_gpu=linked[0], via_nvlink=True)
                if linked
                else None
            )
            naive = (
                PcieRoute(route_gpu=group[0], via_nvlink=False)
                if group
                else None
            )
            entries.append((uplink, aware, naive))
        table = tuple(entries)
        book.extras[key] = table
    return table


def select_pcie_routes(
    node: NodeTopology,
    gpu: Gpu,
    topology_aware: bool = True,
    network: Optional[FlowNetwork] = None,
) -> list[PcieRoute]:
    """Pick route GPUs whose PCIe uplinks a gFn-host transfer may borrow.

    At most one route per foreign PCIe switch (the uplink is the
    resource being borrowed).  With *network* given, switches whose
    uplink already carries traffic are skipped (contention avoidance).
    """
    routes = []
    for uplink, aware, naive in _pcie_switch_table(node, gpu):
        if network is not None and network.flow_count_on(uplink):
            continue
        if aware is not None:
            routes.append(aware)
        elif not topology_aware and naive is not None:
            routes.append(naive)
    return routes


def pcie_host_paths(
    node: NodeTopology,
    gpu: Gpu,
    routes: list[PcieRoute],
    direction: str = "to_host",
    include_direct: bool = True,
) -> list[Path]:
    """Build the parallel path set for a gFn-host transfer.

    ``to_host`` moves GPU data to host memory, ``from_host`` the other
    way.  NVLink-fed routes hop GPU-to-GPU first; NVLink-less routes
    (naive harvesting) relay over PCIe peer-to-peer, crossing the
    source's own uplink twice — the congestion the paper warns about.
    """
    if direction not in ("to_host", "from_host"):
        raise RoutingError(f"unknown direction {direction!r}")
    book = route_book(node)
    paths = []
    if include_direct:
        paths.append(
            book.gpu_to_host(gpu.index)
            if direction == "to_host"
            else book.host_to_gpu(gpu.index)
        )
    for route in routes:
        key = (
            "pcie_path",
            gpu.index,
            route.route_gpu.index,
            route.via_nvlink,
            direction,
        )
        path = book.extras.get(key)
        if path is None:
            path = _borrowed_pcie_path(node, gpu, route, direction)
            book.extras[key] = path
        paths.append(path)
    return paths


def _borrowed_pcie_path(
    node: NodeTopology, gpu: Gpu, route: PcieRoute, direction: str
) -> Path:
    """One borrowed-uplink path of :func:`pcie_host_paths`."""
    host = node.host.device_id
    my_switch = node.switch_of(gpu)
    peer = route.route_gpu
    peer_switch = node.switch_of(peer)
    if direction == "to_host":
        if route.via_nvlink:
            links = _nvlink_hop_links(node, gpu, peer) + [
                node.link(peer.device_id, peer_switch),
                node.link(peer_switch, host),
            ]
        else:
            # PCIe p2p relay: out over my uplink, in to the peer,
            # then out again over the peer's uplink.
            links = [
                node.link(gpu.device_id, my_switch),
                node.link(my_switch, host),
                node.link(host, peer_switch),
                node.link(peer_switch, peer.device_id),
                node.link(peer.device_id, peer_switch),
                node.link(peer_switch, host),
            ]
    else:
        if route.via_nvlink:
            links = [
                node.link(host, peer_switch),
                node.link(peer_switch, peer.device_id),
            ] + _nvlink_hop_links(node, peer, gpu)
        else:
            links = [
                node.link(host, peer_switch),
                node.link(peer_switch, peer.device_id),
                node.link(peer.device_id, peer_switch),
                node.link(peer_switch, host),
                node.link(host, my_switch),
                node.link(my_switch, gpu.device_id),
            ]
    return Path(tuple(links))


@dataclass(frozen=True)
class NicRoute:
    """One NIC lane of a cross-node transfer."""

    src_nic: Nic
    dst_nic: Nic
    src_feeder: Gpu  # GPU that DMA's into src_nic (may be the source)
    dst_feeder: Gpu  # GPU that receives from dst_nic (may be the dest)


def select_nic_routes(
    cluster: ClusterTopology,
    src: Gpu,
    dst: Gpu,
    topology_aware: bool = True,
    max_nics: Optional[int] = None,
) -> list[NicRoute]:
    """Pick NIC lanes for a cross-node gFn-gFn transfer (Fig. 9(a)).

    For every source NIC: use the source GPU itself when the NIC hangs
    off its switch, otherwise a route GPU on the NIC's switch with a
    direct NVLink to the source.  The destination side mirrors the
    source's NIC index ("corresponding GPUs" minimize NUMA hops).
    """
    # NIC lane selection is purely topological, so the whole route list
    # interns on the cluster book; *max_nics* keeps a prefix of it.
    book = cluster_route_book(cluster)
    key = ("nic_routes", src.device_id, dst.device_id, topology_aware)
    routes = book.extras.get(key)
    if routes is None:
        routes = _enumerate_nic_routes(cluster, src, dst, topology_aware)
        book.extras[key] = routes
    return list(routes if max_nics is None else routes[:max_nics])


def _enumerate_nic_routes(
    cluster: ClusterTopology, src: Gpu, dst: Gpu, topology_aware: bool
) -> tuple[NicRoute, ...]:
    """Every NIC lane of :func:`select_nic_routes`, from the topology."""
    src_node = cluster.node_of_device(src.device_id)
    dst_node = cluster.node_of_device(dst.device_id)
    routes: list[NicRoute] = []
    for nic in src_node.nics:
        src_feeder = _feeder_for_nic(src_node, src, nic, topology_aware)
        if src_feeder is None:
            continue
        if nic.index >= len(dst_node.nics):
            continue
        dst_nic = dst_node.nics[nic.index]
        dst_feeder = _feeder_for_nic(dst_node, dst, dst_nic, topology_aware)
        if dst_feeder is None:
            continue
        routes.append(
            NicRoute(
                src_nic=nic,
                dst_nic=dst_nic,
                src_feeder=src_feeder,
                dst_feeder=dst_feeder,
            )
        )
    return tuple(routes)


def _feeder_for_nic(
    node: NodeTopology, gpu: Gpu, nic: Nic, topology_aware: bool
) -> Optional[Gpu]:
    nic_switch_gpus = [
        peer
        for peer in node.gpus
        if nic.device_id in node.nics_of_switch(node.switch_of(peer))
    ]
    if gpu in nic_switch_gpus:
        return gpu
    linked = [peer for peer in nic_switch_gpus if _has_nvlink(node, gpu, peer)]
    if linked:
        return linked[0]
    if not topology_aware and nic_switch_gpus:
        return nic_switch_gpus[0]
    return None


def nic_route_path(
    cluster: ClusterTopology, src: Gpu, dst: Gpu, route: NicRoute
) -> Path:
    """Materialize one NIC lane as a link path."""
    src_node = cluster.node_of_device(src.device_id)
    dst_node = cluster.node_of_device(dst.device_id)
    links: list = []
    if route.src_feeder.device_id != src.device_id:
        links += _nvlink_hop_links(src_node, src, route.src_feeder)
    links += gpu_to_nic_links(src_node, route.src_feeder, route.src_nic)
    links += [
        cluster.link(route.src_nic.device_id, FABRIC_ID),
        cluster.link(FABRIC_ID, route.dst_nic.device_id),
    ]
    links += nic_to_gpu_links(dst_node, route.dst_nic, route.dst_feeder)
    if route.dst_feeder.device_id != dst.device_id:
        links += _nvlink_hop_links(dst_node, route.dst_feeder, dst)
    return Path(tuple(links))


def parallel_nic_paths(
    cluster: ClusterTopology,
    src: Gpu,
    dst: Gpu,
    topology_aware: bool = True,
    max_nics: Optional[int] = None,
) -> list[Path]:
    """All NIC-lane paths for a cross-node transfer, ready to execute."""
    book = cluster_route_book(cluster)
    key = ("nic_paths", src.device_id, dst.device_id, topology_aware)
    lane_paths = book.extras.setdefault(key, {})
    routes = select_nic_routes(
        cluster, src, dst, topology_aware=topology_aware, max_nics=max_nics
    )
    # Materialize lanes lazily per index: a lane beyond the prefix a
    # caller asked for may be un-materializable (no NVLink hop).
    paths = []
    for lane, route in enumerate(routes):
        path = lane_paths.get(lane)
        if path is None:
            path = nic_route_path(cluster, src, dst, route)
            lane_paths[lane] = path
        paths.append(path)
    return paths
