"""The repository benchmark: host speed and simulated latency of the simulator.

    python3 perfbench/run.py --workload grouter_recognition --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` is a timed run with nothing installed in the simulator.
It measures set-up in fresh child processes, then replays the seed's
arrival traces in turn until ``--seconds`` are used, and reports the
end-to-end metrics.  ``--trace 1`` is a traced run of the seed's first
trace: per-layer host self time and work counts, tracing overhead, and
the number of requests that diverge under the reference network modes.

Either way the outputs are checked (see ``Gate``) and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run it from the root of a
checkout; it exits non-zero without a result when ``src/repro`` is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from harness import (
    BENCH_DIR,
    OUT_DIR,
    REQUESTS,
    SIM_METRICS,
    WORKLOADS,
    CheckoutError,
    Replay,
    combine_digests,
    import_repro,
    load_expected,
    sim_summary,
    trace_seeds,
)

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
# The exact reference modes of the allocator and the transfer engine.
REFERENCE_MODES = {
    "REPRO_NET_ALLOCATOR": "fullscan",
    "REPRO_NET_TRANSFER": "per_batch",
}
# A spooled workload must reproduce this workload's digest.
UNSPOOLED = {"grouter_recognition_spooled": "grouter_recognition"}


class Gate:
    """Correctness checks; any failure makes the run incorrect."""

    def __init__(self, workload, seed: int) -> None:
        expected = load_expected()
        self.seed = seed
        self.records = [
            (name, expected[name][str(seed)])
            for name in (workload.name, UNSPOOLED.get(workload.name))
            if name in expected and str(seed) in expected[name]
        ]
        self.errors: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def replay(self, result, reference: str) -> None:
        self.require(
            result.completed == result.submitted,
            f"trace {result.trace_seed}: {result.completed} of "
            f"{result.submitted} requests completed",
        )
        self.require(
            result.digest == reference,
            f"trace {result.trace_seed}: digest {result.digest[:12]} "
            f"differs from {reference[:12]}",
        )

    def trace_digest(self, index: int, digest: str) -> None:
        for name, record in self.records:
            self.require(
                record["trace_digests"][index] == digest,
                f"trace {index} digest differs from the one recorded "
                f"for {name} seed {self.seed}",
            )


def reference_digests(workload, seeds) -> dict:
    """Unspooled digests a spooled workload must reproduce, else {}."""
    if not workload.spool:
        return {}
    return {
        seed: Replay(workload, seed, spool=False).run().digest
        for seed in seeds
    }


def child(args, env=None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )


def probe_setup(workload, seed: int) -> float:
    """Host seconds from process start to the first arrival, in a child."""
    start = time.perf_counter()
    proc = child(["setup", "--workload", workload.name, "--seed", str(seed)])
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return elapsed


def timed_run(workload, seed: int, seconds: float, gate: Gate):
    seeds = trace_seeds(seed)
    setups = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    reference = reference_digests(workload, seeds)
    outcomes: dict[int, list] = {}
    walls: dict[int, list[float]] = {s: [] for s in seeds}
    attempted = failed = replays = 0
    start = time.perf_counter()
    # Replay the traces in turn, every one at least once, while the
    # next replay is expected to end within the time given.
    while True:
        trace_seed = seeds[replays % len(seeds)]
        result = Replay(workload, trace_seed).run()
        replays += 1
        attempted += result.submitted
        failed += result.failed
        walls[trace_seed].append(result.wall_s)
        gate.replay(result, reference.setdefault(trace_seed, result.digest))
        outcomes.setdefault(trace_seed, result.outcomes)
        elapsed = time.perf_counter() - start
        expected_end = elapsed / replays * (replays + 1)
        if replays >= len(seeds) and expected_end > seconds:
            break
    # Each trace's median replay time damps transient host slowdowns,
    # and does not depend on how often the trace was replayed.
    completed = sum(len(outcomes[s]) for s in seeds)
    req_per_s = completed / sum(statistics.median(walls[s]) for s in seeds)
    for index, trace_seed in enumerate(seeds):
        gate.trace_digest(index, reference[trace_seed])

    sim = sim_summary(outcomes[s] for s in seeds)
    gate.require(
        sim["beyond_p99"] >= 10,
        f"only {sim['beyond_p99']} latency samples beyond p99",
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "req_per_s": (req_per_s, "req/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    for name in SIM_METRICS:
        metrics[name] = (sim[name], "ms")
    notes = [
        f"req_per_s: {completed} requests over the median replay seconds "
        f"of each trace; {replays} replays, seconds "
        + "; ".join(
            f"trace {s}: " + ", ".join(f"{w:.2f}" for w in walls[s])
            for s in seeds
        ),
        "setup_s: median of " + ", ".join(f"{s:.3f}" for s in setups),
        f"simulated latency over {sim['samples']} requests, "
        f"{sim['beyond_p99']} beyond p99",
        "digest " + combine_digests(reference[s] for s in seeds),
    ]
    return metrics, attempted, failed, notes


def reference_outcomes(workload, trace_seed: int) -> list:
    """The trace's outcomes under the reference modes, from a child."""
    proc = child(
        ["replay", "--workload", workload.name,
         "--trace-seed", str(trace_seed)],
        env={**os.environ, **REFERENCE_MODES},
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"reference replay failed ({proc.returncode})")
    return json.loads(out)["outcomes"]


def request_number(request_id: str) -> int:
    return int(request_id.rsplit("-", 1)[1])


def divergence(outcomes, reference) -> list[str]:
    """Request ids whose (latency, data_time) differ, in arrival order."""
    ours = {rid: (lat, data) for rid, lat, data in outcomes}
    theirs = {rid: (lat, data) for rid, lat, data in reference}
    return sorted(
        (rid for rid in ours.keys() | theirs.keys()
         if ours.get(rid) != theirs.get(rid)),
        key=request_number,
    )


def traced_run(workload, seed: int, gate: Gate):
    from layers import LAYERS, LayerTracer

    trace_seed = trace_seeds(seed)[0]
    untraced = Replay(workload, trace_seed).run()
    gate.replay(untraced, untraced.digest)
    gate.trace_digest(0, untraced.digest)
    tracer = LayerTracer()
    replay = Replay(workload, trace_seed)
    tracer.install()
    try:
        traced = replay.run()
    finally:
        tracer.uninstall()
    gate.replay(traced, untraced.digest)
    divergent = divergence(
        untraced.outcomes, reference_outcomes(workload, trace_seed)
    )

    n = traced.completed
    plat = traced.platform
    net = plat.plane.network
    steps = tracer.count("sim.Environment.step")
    timer_decisions = net.timer_reschedules + net.timer_elisions
    cache_lookups = net.cache_hits + net.cache_rebuilds
    self_s = tracer.self_seconds()
    metrics = {
        "sim.steps_per_req": (steps / n, "count/req"),
        "sim.stale_pop_frac": (tracer.stale_pops / steps, "frac"),
        "sim.compactions_per_kreq": (plat.env.compactions * 1e3 / n,
                                     "count/kreq"),
        "net.flows_per_req": (net.flows_started / n, "count/req"),
        "net.transfers_per_req": (
            tracer.count("net.TransferEngine.transfer") / n, "count/req"),
        "net.reallocs_per_req": (net.realloc_count / n, "count/req"),
        "net.mean_component_flows": (
            net.realloc_flows / max(net.realloc_count, 1), "flows"),
        "net.timer_rearms_per_req": (net.timer_reschedules / n, "count/req"),
        "net.timer_decisions_per_req": (timer_decisions / n, "count/req"),
        "net.timer_elision_frac": (
            net.timer_elisions / max(timer_decisions, 1), "frac"),
        "net.cache_lookups_per_req": (cache_lookups / n, "count/req"),
        "net.cache_hit_frac": (net.cache_hits / max(cache_lookups, 1),
                               "frac"),
        "net.macro_coalesced_per_req": (net.macro_coalesced / n,
                                        "count/req"),
        "net.macro_split_frac": (
            net.macro_splits / max(net.macro_coalesced, 1), "frac"),
        "net.divergent_requests": (len(divergent), "count"),
        "memory.pool_allocs_per_req": (
            tracer.count("memory.MemoryPool.alloc") / n, "count/req"),
        "memory.reservation_calls_per_req": (
            tracer.count("memory.FunctionHistogram.reservation") / n,
            "count/req"),
        "telemetry.events_per_req": (
            tracer.count("telemetry.EventBus.publish") / n, "count/req"),
        "telemetry.spool_bytes_per_req": (traced.spool_bytes / n, "B/req"),
        "dataplane.puts_per_req": (
            tracer.count("dataplane.DataPlane.put") / n, "count/req"),
        "dataplane.gets_per_req": (
            tracer.count("dataplane.DataPlane.get") / n, "count/req"),
        "dataplane.bytes_per_req": (tracer.bytes_passed / n, "B/req"),
        "platform.queue_ops_per_req": (
            sum(plat.queue.counters.values()) / n, "count/req"),
        "storage.stores_per_req": (
            tracer.count("storage.GpuStore.store", "storage.HostStore.store")
            / n, "count/req"),
        "routing.decisions_per_req": (
            (tracer.count_prefix("routing.select_")
             + tracer.count("routing.best_single_nvlink_path")) / n,
            "count/req"),
        "workflow.dag_queries_per_req": (
            tracer.count_prefix("workflow.") / n, "count/req"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_req"] = (
            self_s[layer] * 1e3 / n, "ms/req"
        )
    metrics.update({
        "trace.requests": (n, "count"),
        "trace.traced_wall_s": (traced.wall_s, "s"),
        "trace.untraced_wall_s": (untraced.wall_s, "s"),
        "trace.coverage_frac": (sum(self_s.values()) / traced.wall_s,
                                "frac"),
        "trace.overhead_frac": (traced.wall_s / untraced.wall_s - 1.0,
                                "frac"),
    })
    gate.require(
        abs(metrics["trace.coverage_frac"][0] - 1.0) <= 0.05,
        f"layer self times cover {metrics['trace.coverage_frac'][0]:.3f} "
        "of the traced wall time",
    )
    notes = [
        f"traced trace {trace_seed}: {n} requests; layer self times are "
        "shares of the traced run",
        f"divergent under {REFERENCE_MODES}: {len(divergent)}"
        + (f", first {divergent[0]}" if divergent else ""),
    ]
    write_spans(workload, seed, tracer, divergent)
    return metrics, untraced.submitted + traced.submitted, (
        untraced.failed + traced.failed), notes


def write_spans(workload, seed: int, tracer, divergent) -> None:
    """The in-memory span aggregates, written once at the end."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-{seed}.json"
    spans = {
        name: {"count": c, "total_s": total, "self_s": own}
        for name, (c, total, own) in sorted(tracer.spans.items())
    }
    with open(path, "w") as f:
        json.dump({"spans": spans, "divergent_requests": divergent}, f,
                  indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        import_repro()
    except CheckoutError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    gate = Gate(workload, args.seed)
    if args.trace:
        metrics, attempted, failed, notes = traced_run(
            workload, args.seed, gate
        )
    else:
        metrics, attempted, failed, notes = timed_run(
            workload, args.seed, args.seconds, gate
        )
    print(f"{workload.name} seed {args.seed} "
          f"({REQUESTS} requests per trace, traces {trace_seeds(args.seed)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for error in gate.errors:
        print(f"perfbench: FAILED CHECK: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not gate.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
