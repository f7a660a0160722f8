#!/usr/bin/env python
"""Standalone runner for the network-engine microbenchmarks.

Equivalent to ``python -m repro bench`` but runnable straight from a
checkout without installing the package:

    PYTHONPATH=src python benchmarks/perf/run_net_bench.py --quick

Writes ``BENCH_net.json`` (override with ``--out``) and prints the
per-scenario events/sec summary.  See README.md in this directory for
what each scenario stresses.
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.bench import (  # noqa: E402
    BENCHMARKS,
    DEFAULT_ALLOCATORS,
    format_summary,
    run_benchmarks,
    write_results,
)
from repro.net.network import ALLOCATORS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmarks", nargs="*",
                        help=f"subset of: {', '.join(BENCHMARKS)}")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down parameters for smoke runs")
    parser.add_argument("--out", default="BENCH_net.json")
    parser.add_argument("--allocators", default=",".join(DEFAULT_ALLOCATORS),
                        help=f"comma-separated subset of: "
                             f"{', '.join(ALLOCATORS)}")
    args = parser.parse_args(argv)

    allocators = tuple(args.allocators.split(","))
    unknown = [a for a in allocators if a not in ALLOCATORS]
    if unknown:
        parser.error(f"unknown allocator(s): {', '.join(unknown)}")
    try:
        document = run_benchmarks(
            quick=args.quick,
            names=args.benchmarks or None,
            allocators=allocators,
        )
    except ValueError as exc:
        parser.error(str(exc))
    print(format_summary(document))
    write_results(document, args.out)
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
