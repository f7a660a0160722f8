"""Route-decision microbenchmarks: books + contention index vs enumeration.

Every transfer the dataplanes issue starts with a route decision —
Algorithm 1 over NVLink candidates, PCIe harvest selection, or NIC lane
fan-out.  The ``book`` routing mode answers those decisions from
precomputed route books and the O(1) contention index; the
``enumerate`` mode re-runs the original graph enumeration per decision
and is the bit-identical reference.  These scenarios measure the gap as
``route_decisions_per_sec`` on the presets the paper evaluates:

``nvlink_mesh``
    §4.3.3 Algorithm 1 on the DGX-1V asymmetric NVLink mesh (the
    worst-case enumeration: a simple-paths DFS per decision).  The
    acceptance headline: warm-book must beat enumeration >= 5x.
``nvlink_mesh_contended``
    The same decisions with live flows loading the mesh, so the
    busy-path branch (residual reads) is exercised in both modes.
``nvlink_nvswitch``
    Algorithm 1 on DGX-A100 (NVSwitch short-circuit — both modes are
    cheap; guards the constant factor).
``pcie_harvest``
    Topology-aware PCIe route selection plus parallel host-path
    construction (the gFn-host hot path).
``cluster_nic``
    Cross-node NIC lane fan-out plus GDR path construction on a
    two-node DGX-1V cluster.

Each scenario runs three modes: ``enumerate``, ``book_cold`` (the book
is evicted every round, so fill cost is charged), and ``book_warm``
(the steady state every request after the first pays).
"""

from __future__ import annotations

import contextlib
import gc
import platform as _platform
import time
from typing import Callable, Optional, Sequence

from repro.bench.netflow import SCHEMA_VERSION
from repro.common.config import mode_metadata
from repro.common.units import MB
from repro.net.network import FlowNetwork
from repro.routing.harvest import (
    parallel_nic_paths,
    pcie_host_paths,
    select_pcie_routes,
)
from repro.routing.nvlink import select_parallel_nvlink_paths
from repro.sim.core import Environment
from repro.topology import make_cluster
from repro.topology import routebook as _routebook
from repro.topology.paths import cross_node_gdr_path, nvlink_simple_paths

MODES = ("enumerate", "book_cold", "book_warm")


def _evict_books(cluster) -> None:
    """Drop the interned books so the next decision rebuilds them."""
    _routebook._CLUSTER_BOOKS.pop(cluster, None)
    for node in cluster.nodes:
        _routebook._NODE_BOOKS.pop(node, None)


@contextlib.contextmanager
def _gc_paused():
    """Keep the cyclic collector out of a timed decision window.

    A gen-2 collection inside the window costs time proportional to
    the live heap, not to the routing work being measured.  Collect
    once up front so the window starts clean, then disable.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _timed(decide: Callable[[], int], rounds: int,
           per_round: Optional[Callable[[], None]] = None) -> dict:
    with _gc_paused():
        decisions = 0
        start = time.perf_counter()
        for _ in range(rounds):
            if per_round is not None:
                per_round()
            decisions += decide()
        wall = max(time.perf_counter() - start, 1e-9)
    return {
        "decisions": decisions,
        "wall_s": wall,
        "decisions_per_sec": decisions / wall,
    }


def _run_modes(cluster, decide_for: Callable[[str], Callable[[], int]],
               rounds: int) -> dict:
    modes = {
        "enumerate": _timed(decide_for("enumerate"), rounds),
        "book_cold": _timed(
            decide_for("book"), rounds,
            per_round=lambda: _evict_books(cluster),
        ),
    }
    # Warm explicitly so the first timed round is already steady-state.
    _routebook.cluster_route_book(cluster).warm()
    modes["book_warm"] = _timed(decide_for("book"), rounds)
    return modes


def _scenario(name: str, preset: str, cluster, decide_for, rounds: int,
              **config) -> dict:
    modes = _run_modes(cluster, decide_for, rounds)
    enum_rate = modes["enumerate"]["decisions_per_sec"]
    warm_rate = modes["book_warm"]["decisions_per_sec"]
    return {
        "name": name,
        "preset": preset,
        "config": {"rounds": rounds, **config},
        "modes": modes,
        "speedup_warm_book_over_enumerate": (
            warm_rate / enum_rate if enum_rate > 0 else float("inf")
        ),
    }


def _gpu_pairs(node) -> list[tuple]:
    gpus = node.gpus
    return [(a, b) for a in gpus for b in gpus if a is not b]


def bench_nvlink_select(preset: str = "dgx-v100", rounds: int = 30,
                        contended: bool = False,
                        name: Optional[str] = None) -> dict:
    """Algorithm 1 over every ordered GPU pair of one node."""
    cluster = make_cluster(preset)
    node = cluster.nodes[0]
    env = Environment()
    net = FlowNetwork(env)
    pairs = _gpu_pairs(node)
    if contended:
        # Load every third pair's best candidate with a long-lived flow
        # so free/busy classification and residual reads both fire.
        for src, dst in pairs[::3]:
            candidates = nvlink_simple_paths(node, src, dst)
            if candidates:
                net.start_flow(list(candidates[0].links), 1024 * MB)

    def decide_for(routing: str) -> Callable[[], int]:
        def decide() -> int:
            for src, dst in pairs:
                select_parallel_nvlink_paths(
                    node, net, src, dst, routing=routing
                )
            return len(pairs)
        return decide

    return _scenario(
        name or f"nvlink_{'mesh' if not node.has_nvswitch else 'nvswitch'}",
        preset, cluster, decide_for, rounds,
        pairs=len(pairs), contended=contended,
    )


def bench_pcie_harvest(preset: str = "dgx-v100", rounds: int = 30) -> dict:
    """Topology-aware PCIe harvest + host path construction per GPU."""
    cluster = make_cluster(preset)
    node = cluster.nodes[0]
    env = Environment()
    net = FlowNetwork(env)

    def decide_for(routing: str) -> Callable[[], int]:
        def decide() -> int:
            for gpu in node.gpus:
                routes = select_pcie_routes(
                    node, gpu, network=net, routing=routing
                )
                pcie_host_paths(node, gpu, routes, "to_host",
                                routing=routing)
                pcie_host_paths(node, gpu, routes, "from_host",
                                routing=routing)
            return 3 * len(node.gpus)
        return decide

    return _scenario("pcie_harvest", preset, cluster, decide_for, rounds,
                     gpus=len(node.gpus))


def bench_cluster_nic(preset: str = "dgx-v100", num_nodes: int = 2,
                      rounds: int = 30) -> dict:
    """Cross-node NIC lane fan-out + GDR paths between two nodes."""
    cluster = make_cluster(preset, num_nodes=num_nodes)
    src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
    book = _routebook.cluster_route_book
    pairs = [(s, d) for s in src_node.gpus for d in dst_node.gpus]

    def decide_for(routing: str) -> Callable[[], int]:
        def decide() -> int:
            for src, dst in pairs:
                parallel_nic_paths(cluster, src, dst, routing=routing)
                if routing == "book":
                    book(cluster).gdr_path(src.device_id, dst.device_id)
                else:
                    cross_node_gdr_path(cluster, src, dst)
            return 2 * len(pairs)
        return decide

    return _scenario("cluster_nic", preset, cluster, decide_for, rounds,
                     num_nodes=num_nodes, pairs=len(pairs))


BenchFn = Callable[..., dict]

ROUTING_BENCHMARKS: dict[str, tuple[BenchFn, dict, dict]] = {
    # name -> (fn, full-run kwargs, quick-run kwargs)
    "nvlink_mesh": (
        bench_nvlink_select,
        {"preset": "dgx-v100", "rounds": 30},
        {"preset": "dgx-v100", "rounds": 5},
    ),
    "nvlink_mesh_contended": (
        bench_nvlink_select,
        {"preset": "dgx-v100", "rounds": 30, "contended": True,
         "name": "nvlink_mesh_contended"},
        {"preset": "dgx-v100", "rounds": 5, "contended": True,
         "name": "nvlink_mesh_contended"},
    ),
    "nvlink_nvswitch": (
        bench_nvlink_select,
        {"preset": "dgx-a100", "rounds": 30},
        {"preset": "dgx-a100", "rounds": 5},
    ),
    "pcie_harvest": (
        bench_pcie_harvest,
        {"preset": "dgx-v100", "rounds": 30},
        {"preset": "dgx-v100", "rounds": 5},
    ),
    "cluster_nic": (
        bench_cluster_nic,
        {"preset": "dgx-v100", "num_nodes": 2, "rounds": 30},
        {"preset": "dgx-v100", "num_nodes": 2, "rounds": 5},
    ),
}


def run_routing_benchmarks(
    quick: bool = False,
    names: Optional[Sequence[str]] = None,
) -> dict:
    """Run the selected benchmarks; returns BENCH_routing.json."""
    selected = list(names) if names else list(ROUTING_BENCHMARKS)
    unknown = [n for n in selected if n not in ROUTING_BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            f"choose from {', '.join(ROUTING_BENCHMARKS)}"
        )
    runs: list[dict] = []
    for name in selected:
        fn, full_kwargs, quick_kwargs = ROUTING_BENCHMARKS[name]
        kwargs = quick_kwargs if quick else full_kwargs
        runs.append(fn(**kwargs))
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "repro bench --suite routing",
        "mode": "quick" if quick else "full",
        "modes": mode_metadata(),
        "python": _platform.python_version(),
        "benchmarks": runs,
        "speedup_warm_book_over_enumerate": {
            run["name"]: run["speedup_warm_book_over_enumerate"]
            for run in runs
        },
    }


def format_routing_summary(document: dict) -> str:
    """Human-readable summary for logs and CI output."""
    lines = [
        f"{'benchmark':<24} {'mode':<12} {'decisions':>10} {'wall (s)':>9} "
        f"{'decisions/s':>12}"
    ]
    for run in document["benchmarks"]:
        for mode in MODES:
            stats = run["modes"].get(mode)
            if stats is None:
                continue
            lines.append(
                f"{run['name']:<24} {mode:<12} {stats['decisions']:>10} "
                f"{stats['wall_s']:>9.3f} {stats['decisions_per_sec']:>12.0f}"
            )
        lines.append(
            f"{run['name']:<24} {'warm/enum (x)':<12} "
            f"{run['speedup_warm_book_over_enumerate']:>33.1f}"
        )
    return "\n".join(lines)
