"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show available experiments, data planes, workloads and topologies.
``run EXPERIMENT``
    Run one paper experiment (or ``all``) and print/export its tables.
``topo PRESET``
    Describe a topology preset (GPUs, links, NICs, asymmetry).
``workloads``
    Describe the evaluation workflow suite.
``trace``
    Run one experiment with telemetry attached and write a
    Chrome/Perfetto ``trace.json`` (``--stream`` spools it to disk).
``profile``
    Run one experiment with the causal profiler attached: writes
    ``profile.json`` (per-request critical paths with exact blame
    tiling) and prints the per-category breakdown plus the Fig.-3
    shaped data-passing share per plane.
``health``
    Run one experiment with the SLO board and per-entity time series
    attached: writes ``health.json`` (attainment, burn rate, violation
    episodes, entity verdicts) plus the event spool it was derived
    from, and prints an ASCII dashboard.  ``--replay`` rebuilds the
    identical document from an existing spool.
``validate``
    Run the claim-by-claim reproduction scorecard (slow).

The simulator's own speed is measured by ``perfbench/run.py`` at the
repository root (see ``perfbench/README.md``), not by this CLI.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from repro.common.units import GB
from repro.experiments import (
    ablations,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    table1,
)
from repro.report import FORMATS, render

# name -> (description, full-run callable, quick-run callable).
# Callables return a list of ExperimentTable.
EXPERIMENTS: dict[str, tuple[str, Callable, Callable]] = {
    "fig03": (
        "host-centric latency breakdown",
        lambda: [fig03.run_overall(), fig03.run_traffic_batches()],
        lambda: [fig03.run_overall(workflows=("driving",), duration=6.0)],
    ),
    "table1": (
        "capability matrix of storage approaches",
        lambda: [table1.run()],
        lambda: [table1.run()],
    ),
    "fig04": (
        "redundant copies in a chain workflow",
        lambda: [fig04.run()],
        lambda: [fig04.run(trials=3)],
    ),
    "fig05": (
        "PCIe interference without partitioning",
        lambda: [fig05.run()],
        lambda: [fig05.run(duration=8.0)],
    ),
    "fig06": (
        "DGX-V100 p2p bandwidth matrix",
        lambda: [fig06.run()],
        lambda: [fig06.run()],
    ),
    "fig07": (
        "GPU memory under Azure-style trace",
        lambda: [fig07.run_memory_timeline(), fig07.run_forced_eviction()],
        lambda: [fig07.run_memory_timeline(duration=8.0)],
    ),
    "fig12": (
        "workflow suite structure",
        lambda: [fig12.run()],
        lambda: [fig12.run()],
    ),
    "fig13": (
        "raw data-passing latency (3 patterns)",
        lambda: fig13.run_all(),
        lambda: [fig13.run_pattern("intra", sizes_mb=(16, 64), trials=2)],
    ),
    "fig14": (
        "end-to-end P99 latency per workflow",
        lambda: fig14.run_both_testbeds(),
        lambda: [fig14.run(workflows=("driving",), duration=8.0)],
    ),
    "fig15": (
        "max sustainable throughput",
        lambda: [fig15.run()],
        lambda: [fig15.run(duration=6.0, planes=("infless+", "grouter"))],
    ),
    "fig16": (
        "ablation of UF/BH/TA/ES",
        lambda: fig16.run_both_testbeds(),
        lambda: [fig16.run(duration=8.0)],
    ),
    "fig17": (
        "SLO-aware bandwidth partitioning",
        lambda: [fig17.run()],
        lambda: [fig17.run(duration=8.0)],
    ),
    "fig18": (
        "elastic storage under memory pressure",
        lambda: [
            fig18.run_tail_latency(),
            fig18.run_memory_sweep(),
            fig18.run_data_passing(),
        ],
        lambda: [fig18.run_tail_latency(duration=8.0)],
    ),
    "fig19": (
        "LLM/MoA TTFT",
        lambda: [fig19.run_input_lengths(), fig19.run_models_tp()],
        lambda: [fig19.run_input_lengths(lengths=(2048, 4096))],
    ),
    "fig20": (
        "no-NVLink latency + system overheads",
        lambda: [
            fig20.run_a10_latency(),
            fig20.run_cpu_overhead(),
            fig20.run_gpu_memory_overhead(),
        ],
        lambda: [fig20.run_a10_latency(sizes_mb=(64,), trials=2)],
    ),
    "ablations": (
        "chunk/batch/placement sweeps (beyond the paper)",
        lambda: [
            ablations.run_chunk_size_sweep(),
            ablations.run_batch_size_sweep(),
            ablations.run_placement_sweep(),
        ],
        lambda: [ablations.run_chunk_size_sweep(chunk_sizes_mb=(1, 2, 8))],
    ),
}


def _cmd_list(_args) -> int:
    from repro.dataplane import PLANES
    from repro.topology.node import _SPECS
    from repro.workflow import WORKLOADS

    print("experiments:")
    for name, (description, _full, _quick) in EXPERIMENTS.items():
        print(f"  {name:<10} {description}")
    print("\ndata planes:   " + ", ".join(sorted(PLANES)))
    print("workloads:     " + ", ".join(sorted(WORKLOADS)) + ", moa (repro.llm)")
    print("topologies:    " + ", ".join(sorted(_SPECS)))
    return 0


def _cmd_run(args) -> int:
    names = (
        list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(EXPERIMENTS)} or 'all'",
              file=sys.stderr)
        return 2
    for name in names:
        _description, full, quick = EXPERIMENTS[name]
        tables = quick() if args.quick else full()
        for index, table in enumerate(tables):
            text = render(table, args.format)
            print(text)
            print()
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                ext = "txt" if args.format == "table" else args.format
                path = os.path.join(args.out, f"{name}_{index}.{ext}")
                with open(path, "w") as handle:
                    handle.write(text + "\n")
    return 0


def _cmd_topo(args) -> int:
    from repro.topology import NodeTopology, node_spec

    spec = node_spec(args.preset)
    node = NodeTopology(spec, 0)
    print(f"{spec.name}: {spec.num_gpus} GPUs x "
          f"{spec.gpu_memory / GB:.0f} GB")
    print(f"  PCIe: {spec.pcie_bandwidth / GB:.0f} GB/s per link, "
          f"switch groups {spec.switch_groups}")
    print(f"  NICs: {len(node.nics)} x {spec.nic_bandwidth / GB:.1f} GB/s")
    if node.has_nvswitch:
        print(f"  NVSwitch: {spec.nvswitch_bandwidth / GB:.0f} GB/s per port")
    elif node.has_nvlink:
        pairs = [(a, b) for a in range(spec.num_gpus)
                 for b in range(a + 1, spec.num_gpus)]
        linked = [(a, b) for a, b in pairs if node.nvlink_capacity(a, b) > 0]
        print(f"  NVLink mesh: {len(linked)}/{len(pairs)} pairs linked")
        for a, b in linked:
            print(f"    g{a}-g{b}: {node.nvlink_capacity(a, b) / GB:.0f} GB/s")
    else:
        print("  no NVLink (PCIe peer-to-peer only)")
    return 0


def _cmd_workloads(_args) -> int:
    from repro.workflow import WORKLOADS, get_workload

    for name in WORKLOADS:
        spec = get_workload(name)
        workflow = spec.workflow
        print(f"{name}: {spec.description}")
        print(f"  stages: {len(workflow)} "
              f"({len(workflow.gpu_stages())} GPU, "
              f"{len(workflow.cpu_stages())} CPU), "
              f"edges: {len(workflow.edges)}")
        print(f"  input: {spec.input_per_item / (1024 * 1024):.1f} MB/item, "
              f"default batch {spec.default_batch}")
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.report import metrics_summary_table
    from repro.telemetry import capture
    from repro.telemetry.profiler import (
        build_profiles,
        critical_path_trace_events,
    )

    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment: {args.experiment}", file=sys.stderr)
        print(f"choose from: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    _description, full, quick = EXPERIMENTS[args.experiment]
    if args.stream:
        return _cmd_trace_stream(args, full, quick)
    with capture() as session:
        tables = quick() if args.quick else full()
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    doc = session.export_chrome_trace()
    # Dedicated critical-path track: the gating chain of every request
    # as its own pid, one tid per request.
    critical = critical_path_trace_events(
        build_profiles(session.events), multi_run=session.run_count > 1
    )
    doc["traceEvents"].extend(critical)
    with open(args.out, "w") as handle:
        json.dump(doc, handle)
    print(f"wrote {args.out}: {len(doc['traceEvents'])} trace events "
          f"({len(critical)} critical-path) "
          f"from {session.run_count} run(s) "
          f"(open in ui.perfetto.dev or chrome://tracing)")
    print()
    print(render(metrics_summary_table(session.metrics), args.format))
    if not args.quiet:
        for table in tables:
            print()
            print(render(table, args.format))
    return 0


def _cmd_trace_stream(args, full, quick) -> int:
    """``repro trace --stream``: spool the trace to disk incrementally.

    Events never accumulate in memory — a
    :class:`~repro.telemetry.ChromeStreamingSink` writes each one to
    the output file as it is published, so arbitrarily long runs trace
    in bounded RSS.  The profiler's critical-path track needs the full
    in-memory event list and is skipped in this mode.
    """
    from repro.report import metrics_summary_table
    from repro.telemetry import ChromeStreamingSink, capture

    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    sink = ChromeStreamingSink(args.out)
    with capture(sinks=[sink]) as session:
        tables = quick() if args.quick else full()
    print(f"wrote {args.out}: {sink.records_written} trace events "
          f"streamed from {session.run_count} run(s), "
          f"{sink.bytes_written} bytes "
          f"(open in ui.perfetto.dev or chrome://tracing; "
          f"critical-path track unavailable in --stream mode)")
    print()
    print(render(metrics_summary_table(session.metrics), args.format))
    if not args.quiet:
        for table in tables:
            print()
            print(render(table, args.format))
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.telemetry import capture
    from repro.telemetry.profiler import (
        breakdown_table,
        build_profiles,
        profile_document,
    )

    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment: {args.experiment}", file=sys.stderr)
        print(f"choose from: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    _description, full, quick = EXPERIMENTS[args.experiment]
    with capture() as session:
        tables = quick() if args.quick else full()
    builders = build_profiles(session.events)
    document = profile_document(builders, experiment=args.experiment)
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
    profiled = sum(len(run["requests"]) for run in document["runs"])
    inexact = sum(
        1
        for run in document["runs"]
        for request in run["requests"]
        if not request["exact"]
    )
    print(f"wrote {args.out}: {profiled} request(s) profiled across "
          f"{len(document['runs'])} run(s), "
          f"{profiled - inexact}/{profiled} with exact blame tiling")
    for table in breakdown_table(document):
        print()
        print(render(table, args.format))
    if not args.quiet:
        for table in tables:
            print()
            print(render(table, args.format))
    return 0 if inexact == 0 else 1


def _cmd_health(args) -> int:
    """``repro health``: run an experiment, report SLO + entity health.

    The experiment runs with a JSONL event spool attached; the health
    document is built **from the spool**, never from live simulator
    state, so ``repro health --replay <spool>`` on the same file
    reproduces the identical verdicts (the bit-identical contract the
    acceptance tests pin).
    """
    import json

    from repro.telemetry import JsonlEventSink, capture
    from repro.telemetry.health import (
        build_health,
        fold_runs,
        format_dashboard,
        health_trace_events,
    )
    from repro.telemetry.slo import default_specs

    specs = default_specs(
        latency_s=args.latency_slo_ms / 1000.0,
        ttft_s=args.ttft_slo_ms / 1000.0,
        data_share_max=args.data_share_max,
        objective=args.objective,
        window=args.window,
    )
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    if args.replay:
        spool = args.replay
        tables = []
    else:
        if args.experiment not in EXPERIMENTS:
            print(f"unknown experiment: {args.experiment}", file=sys.stderr)
            print(f"choose from: {', '.join(EXPERIMENTS)}", file=sys.stderr)
            return 2
        _description, full, quick = EXPERIMENTS[args.experiment]
        spool = args.spool
        if not spool:
            spool = os.path.join(out_dir or ".", "health_events.jsonl")
        spool_dir = os.path.dirname(spool)
        if spool_dir:
            os.makedirs(spool_dir, exist_ok=True)
        with capture(sinks=[JsonlEventSink(spool)]):
            tables = quick() if args.quick else full()
    state = fold_runs(spool, specs)
    health = build_health(spool, specs, state=state)
    with open(args.out, "w") as handle:
        json.dump(health, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.trace:
        _stores, boards, _planes = state
        records = health_trace_events(boards, multi_run=len(boards) > 1)
        with open(args.trace, "w") as handle:
            json.dump({"traceEvents": records, "displayTimeUnit": "ms"},
                      handle)
        print(f"wrote {args.trace}: {len(records)} SLO counter records")
    print(format_dashboard(health))
    print()
    print(f"wrote {args.out} (spool: {spool})")
    if not args.quiet:
        for table in tables:
            print()
            print(render(table, args.format))
    if args.strict and health["overall"] != "ok":
        return 1
    return 0


def _cmd_validate(_args) -> int:
    from repro.validate import run_scorecard

    card = run_scorecard()
    print(card.format())
    return 0 if card.passed == card.total else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GROUTER reproduction: run paper experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, planes, workloads")

    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment")
    run.add_argument("--quick", action="store_true",
                     help="scaled-down parameters")
    run.add_argument("--format", choices=FORMATS, default="table")
    run.add_argument("--out", help="directory to write results into")

    topo = sub.add_parser("topo", help="describe a topology preset")
    topo.add_argument("preset")

    trace = sub.add_parser(
        "trace",
        help="run an experiment with telemetry; export a Perfetto trace",
    )
    trace.add_argument("experiment")
    trace.add_argument("--quick", action="store_true",
                       help="scaled-down parameters")
    trace.add_argument("--out", default="trace.json",
                       help="trace file to write (Chrome trace_event JSON)")
    trace.add_argument("--format", choices=FORMATS, default="table")
    trace.add_argument("--quiet", action="store_true",
                       help="skip the experiment's own result tables")
    trace.add_argument("--stream", action="store_true",
                       help="spool trace events to --out incrementally "
                            "(bounded memory; no critical-path track)")

    profile = sub.add_parser(
        "profile",
        help="run an experiment with the causal profiler; export "
             "profile.json with per-request critical-path blame",
    )
    profile.add_argument("experiment")
    profile.add_argument("--quick", action="store_true",
                         help="scaled-down parameters")
    profile.add_argument("--out", default="profile.json",
                         help="profile file to write (default: profile.json)")
    profile.add_argument("--format", choices=FORMATS, default="table")
    profile.add_argument("--quiet", action="store_true",
                         help="skip the experiment's own result tables")

    health = sub.add_parser(
        "health",
        help="run an experiment with SLO + entity health tracking; "
             "write health.json and an ASCII dashboard",
    )
    health.add_argument(
        "experiment", nargs="?", default="fig14",
        help="experiment to run (default: fig14; ignored with --replay)",
    )
    health.add_argument("--quick", action="store_true",
                        help="scaled-down parameters")
    health.add_argument("--out", default="health.json",
                        help="health document to write (default: "
                             "health.json)")
    health.add_argument("--spool",
                        help="JSONL event spool path (default: "
                             "health_events.jsonl next to --out)")
    health.add_argument("--replay", metavar="SPOOL",
                        help="skip the run; rebuild health from an "
                             "existing JSONL spool")
    health.add_argument("--trace",
                        help="also write SLO burn-rate Perfetto counter "
                             "tracks to this trace file")
    health.add_argument("--latency-slo-ms", type=float, default=5000.0,
                        help="per-request latency threshold (default "
                             "5000 ms)")
    health.add_argument("--ttft-slo-ms", type=float, default=5000.0,
                        help="time-to-first-compute threshold (default "
                             "5000 ms)")
    health.add_argument("--data-share-max", type=float, default=0.9,
                        help="data-passing share ceiling per request "
                             "(default 0.9)")
    health.add_argument("--objective", type=float, default=0.95,
                        help="good fraction each SLO must hold "
                             "(default 0.95)")
    health.add_argument("--window", type=float, default=5.0,
                        help="rolling SLO window in sim seconds "
                             "(default 5.0)")
    health.add_argument("--strict", action="store_true",
                        help="exit 1 unless the overall verdict is ok")
    health.add_argument("--format", choices=FORMATS, default="table")
    health.add_argument("--quiet", action="store_true",
                        help="skip the experiment's own result tables")

    sub.add_parser("workloads", help="describe the workflow suite")

    sub.add_parser(
        "validate",
        help="run the claim-by-claim reproduction scorecard (slow)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "topo": _cmd_topo,
        "trace": _cmd_trace,
        "profile": _cmd_profile,
        "health": _cmd_health,
        "workloads": _cmd_workloads,
        "validate": _cmd_validate,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
