"""Microbenchmarks for the fluid-flow network engine.

Three scenarios stress the allocator the way the paper's workloads do
(§4.3.1–§4.3.3 explode one logical transfer into many short-lived
flows):

``flow_churn``
    N concurrent single-link flows spread over K disjoint link
    components, each slot restarting a new flow the moment its previous
    one drains.  The headline scenario for component scoping: a
    from-scratch allocator recomputes all N flows on every one of the
    ~2·N·rounds events, the incremental one only N/K.
``fanin_hotspot``
    Every flow shares one bottleneck link (a single component), so
    scoping cannot help — this guards against regressions on the fully
    contended case (the component search is amortized by dropped sorts
    and timer-reschedule elision).
``multipath_chunk_storm``
    Chunk-batched :class:`~repro.net.transfer.TransferEngine` transfers
    over two-hop parallel paths in disjoint groups — the paper's 2 MB
    chunk / 5-chunk batch shape, one flow per batch per path.
``transfer_storm``
    Concurrent large chunked transfers on disjoint links, run once in
    ``coalesced`` mode and once in ``per_batch`` mode.  Both modes are
    charged the same *logical* batch events (what batch granularity
    means semantically), so events/sec measures how cheaply each mode
    delivers identical observable behaviour — the steady-state
    coalescing headline.

Each scenario runs once per allocator (``incremental`` by default;
``fullscan`` is the differential reference) and reports wall-clock,
flow events per second (starts + finishes), reallocation count, and
mean component size; :func:`write_results` records everything in
``BENCH_net.json`` so perf PRs leave a measured trajectory.
"""

from __future__ import annotations

import json
import math
import platform
import time
from typing import Callable, Optional, Sequence

from repro.common.config import mode_metadata
from repro.common.units import MB
from repro.net.links import Link, LinkKind
from repro.net.network import FlowNetwork
from repro.net.transfer import Path, TransferEngine
from repro.sim.core import Environment

SCHEMA_VERSION = 1
DEFAULT_ALLOCATORS = ("incremental",)


def _result(name: str, allocator: str, net: FlowNetwork,
            env: Environment, flow_events: int, wall: float,
            config: dict) -> dict:
    wall = max(wall, 1e-9)
    return {
        "name": name,
        "allocator": allocator,
        "config": config,
        "flow_events": flow_events,
        "wall_s": wall,
        "events_per_sec": flow_events / wall,
        "sim_time": env.now,
        "realloc_count": net.realloc_count,
        "mean_component_size": net.mean_component_size,
        "timer_reschedules": net.timer_reschedules,
        "timer_elisions": net.timer_elisions,
        "heap_compactions": env.compactions,
        # Macro-flow coalescing activity (zero unless a transfer
        # engine runs in coalesced mode).
        "macro_coalesced": net.macro_coalesced,
        "macro_splits": net.macro_splits,
    }


def bench_flow_churn(
    allocator: str,
    flows: int = 256,
    components: int = 8,
    rounds: int = 24,
) -> dict:
    """Disjoint-component churn: each slot restarts flows back-to-back."""
    env = Environment()
    net = FlowNetwork(env, allocator=allocator)
    links = [
        Link(link_id=f"churn.l{i}", src=f"s{i}", dst=f"d{i}",
             capacity=100 * MB, kind=LinkKind.PCIE)
        for i in range(components)
    ]
    completed = 0

    def slot(idx: int):
        nonlocal completed
        link = links[idx % components]
        for round_no in range(rounds):
            # Deterministically varied sizes stagger completions so the
            # event stream interleaves across slots.
            size = (1 + (idx * 37 + round_no * 13) % 17) * MB / 4
            flow = net.start_flow([link], size)
            yield flow.done
            completed += 1

    for i in range(flows):
        env.process(slot(i))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return _result(
        "flow_churn", allocator, net, env, 2 * completed, wall,
        {"flows": flows, "components": components, "rounds": rounds},
    )


def bench_fanin_hotspot(
    allocator: str,
    flows: int = 128,
    rounds: int = 16,
) -> dict:
    """Fan-in on one shared link: a single always-merged component."""
    env = Environment()
    net = FlowNetwork(env, allocator=allocator)
    hot = Link(link_id="fanin.hot", src="many", dst="gpu",
               capacity=100 * MB, kind=LinkKind.PCIE)
    completed = 0

    def slot(idx: int):
        nonlocal completed
        for round_no in range(rounds):
            size = (1 + (idx * 31 + round_no * 7) % 13) * MB / 8
            flow = net.start_flow([hot], size)
            yield flow.done
            completed += 1

    for i in range(flows):
        env.process(slot(i))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    return _result(
        "fanin_hotspot", allocator, net, env, 2 * completed, wall,
        {"flows": flows, "rounds": rounds},
    )


def bench_multipath_chunk_storm(
    allocator: str,
    groups: int = 16,
    transfers_per_group: int = 4,
    transfer_mb: int = 24,
) -> dict:
    """Paper-shaped storm: chunk-batched transfers over parallel paths.

    Each group is an isolated src->dst pair bridged by two two-hop
    paths; transfers within a group run back-to-back.  Every batch is a
    separate flow, so one logical transfer becomes dozens of flow
    arrivals/departures — the workload that made the from-scratch
    allocator quadratic.
    """
    env = Environment()
    net = FlowNetwork(env, allocator=allocator)
    engine = TransferEngine(env, net)
    group_paths: list[tuple[Path, Path]] = []
    for g in range(groups):
        src, mid_a, mid_b, dst = (
            f"g{g}.src", f"g{g}.ma", f"g{g}.mb", f"g{g}.dst"
        )
        pair = []
        for mid, tag, cap in ((mid_a, "a", 64 * MB), (mid_b, "b", 32 * MB)):
            up = Link(link_id=f"g{g}.{tag}.up", src=src, dst=mid,
                      capacity=cap, kind=LinkKind.PCIE)
            down = Link(link_id=f"g{g}.{tag}.down", src=mid, dst=dst,
                        capacity=cap, kind=LinkKind.PCIE)
            pair.append(Path(links=(up, down)))
        group_paths.append(tuple(pair))
    completed = 0

    def group_driver(g: int):
        nonlocal completed
        paths = group_paths[g]
        for t in range(transfers_per_group):
            size = (transfer_mb + (g * 5 + t * 3) % 8) * MB
            result = yield engine.transfer(paths, size, tag=f"g{g}.t{t}")
            assert result.size == size
            completed += 1

    for g in range(groups):
        env.process(group_driver(g))
    start = time.perf_counter()
    env.run()
    wall = time.perf_counter() - start
    # Flow events are what the allocator pays for: one start + one
    # finish per batch per path (every started flow drains by the time
    # env.run() returns).
    flow_events = 2 * net.flows_started
    return _result(
        "multipath_chunk_storm", allocator, net, env, flow_events, wall,
        {"groups": groups, "transfers_per_group": transfers_per_group,
         "transfer_mb": transfer_mb},
    )


def bench_transfer_storm(
    allocator: str,
    transfers: int = 8,
    rounds: int = 3,
    transfer_mb: int = 1024,
) -> dict:
    """Coalesced vs per-batch on quiescent large chunked transfers.

    Each of *transfers* disjoint links carries *rounds* back-to-back
    transfers of *transfer_mb*.  Nothing ever disturbs a link's
    component, so ``coalesced`` mode collapses every transfer into one
    macro-flow (O(1) DES events) while ``per_batch`` pays the full
    O(size/batch) loop.  Both runs are charged the same *logical*
    batch-event count, so events/sec compares the cost of delivering
    identical observable behaviour.  The returned record is the
    coalesced run, with the per-batch run nested under ``"per_batch"``
    and the headline ratio under ``"coalesced_speedup_over_per_batch"``.
    """
    def run_mode(mode: str) -> dict:
        env = Environment()
        net = FlowNetwork(env, allocator=allocator)
        engine = TransferEngine(env, net, mode=mode)
        paths = [
            Path((Link(link_id=f"storm.l{i}", src=f"s{i}", dst=f"h{i}",
                       capacity=16 * 1024 * MB, kind=LinkKind.PCIE),))
            for i in range(transfers)
        ]
        completed = 0

        def driver(i: int):
            nonlocal completed
            for r in range(rounds):
                result = yield engine.transfer(
                    [paths[i]], transfer_mb * MB, tag=f"storm.t{i}.{r}"
                )
                assert result.size == transfer_mb * MB
                completed += 1

        for i in range(transfers):
            env.process(driver(i))
        start = time.perf_counter()
        env.run()
        wall = time.perf_counter() - start
        assert completed == transfers * rounds
        batch_bytes = engine.chunk_size * engine.batch_chunks
        batches = transfers * rounds * math.ceil(transfer_mb * MB / batch_bytes)
        record = _result(
            "transfer_storm", allocator, net, env, 2 * batches, wall,
            {"transfers": transfers, "rounds": rounds,
             "transfer_mb": transfer_mb},
        )
        record["transfer_mode"] = mode
        record["flows_started"] = net.flows_started
        return record

    record = run_mode("coalesced")
    per_batch = run_mode("per_batch")
    assert record["sim_time"] == per_batch["sim_time"], (
        "coalesced changed observable timing: "
        f"{record['sim_time']} != {per_batch['sim_time']}"
    )
    record["per_batch"] = per_batch
    record["coalesced_speedup_over_per_batch"] = (
        record["events_per_sec"] / per_batch["events_per_sec"]
    )
    if transfer_mb >= 1024:
        assert record["coalesced_speedup_over_per_batch"] >= 2.0, (
            "coalescing below the 2x floor at 1 GB: "
            f"{record['coalesced_speedup_over_per_batch']:.2f}x"
        )
    return record


BenchFn = Callable[..., dict]

BENCHMARKS: dict[str, tuple[BenchFn, dict, dict]] = {
    # name -> (fn, full-run kwargs, quick-run kwargs)
    "flow_churn": (
        bench_flow_churn,
        {"flows": 256, "components": 8, "rounds": 24},
        {"flows": 64, "components": 8, "rounds": 4},
    ),
    "fanin_hotspot": (
        bench_fanin_hotspot,
        {"flows": 128, "rounds": 16},
        {"flows": 32, "rounds": 4},
    ),
    "multipath_chunk_storm": (
        bench_multipath_chunk_storm,
        {"groups": 16, "transfers_per_group": 4, "transfer_mb": 24},
        {"groups": 4, "transfers_per_group": 2, "transfer_mb": 8},
    ),
    "transfer_storm": (
        bench_transfer_storm,
        {"transfers": 8, "rounds": 3, "transfer_mb": 1024},
        {"transfers": 4, "rounds": 2, "transfer_mb": 64},
    ),
}


def run_benchmarks(
    quick: bool = False,
    names: Optional[Sequence[str]] = None,
    allocators: Sequence[str] = DEFAULT_ALLOCATORS,
) -> dict:
    """Run the selected microbenchmarks for each allocator.

    Returns the ``BENCH_net.json`` document of per-run records.
    """
    selected = list(names) if names else list(BENCHMARKS)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            f"choose from {', '.join(BENCHMARKS)}"
        )
    runs: list[dict] = []
    for name in selected:
        fn, full_kwargs, quick_kwargs = BENCHMARKS[name]
        kwargs = quick_kwargs if quick else full_kwargs
        for allocator in allocators:
            runs.append(fn(allocator, **kwargs))
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "repro bench",
        "mode": "quick" if quick else "full",
        "modes": mode_metadata(),
        "python": platform.python_version(),
        "benchmarks": runs,
    }


def write_results(document: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


def format_summary(document: dict) -> str:
    """Human-readable per-scenario summary for logs and CI output."""
    lines = [
        f"{'benchmark':<24} {'allocator':<12} {'events/s':>12} "
        f"{'wall (s)':>9} {'reallocs':>9} {'mean comp':>10}"
    ]
    for run in document["benchmarks"]:
        lines.append(
            f"{run['name']:<24} {run['allocator']:<12} "
            f"{run['events_per_sec']:>12.0f} {run['wall_s']:>9.3f} "
            f"{run['realloc_count']:>9} {run['mean_component_size']:>10.1f}"
        )
    for run in document["benchmarks"]:
        ratio = run.get("coalesced_speedup_over_per_batch")
        if ratio is not None:
            lines.append(
                f"coalesce[{run['name']}/{run['allocator']}] = {ratio:.2f}x "
                "(events/sec, coalesced over per_batch)"
            )
    return "\n".join(lines)
