"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload deepplan_video --seeds 0-9
    python3 perfbench/sweep.py --seeds 0-9 --record "seed commit"

Each run is ``perfbench/run.py`` in its own process, one after another.
For every metric the sweep prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.
``--record LABEL`` stores the summary in ``perfbench/baseline.json``
under ``baselines[LABEL]``, keeping every other entry of that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from harness import BENCH_DIR, ROOT, WORKLOADS

BASELINE_PATH = BENCH_DIR / "baseline.json"
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    defined = {
        m["name"]: m
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    seeds = parse_seeds(args.seeds)
    summary: dict = {}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds:
            start = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            took = time.perf_counter() - start
            print(f"{workload} seed {seed}: {took:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr, flush=True)
        rows = {}
        print(f"\n{workload} ({len(seeds)} seeds)")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, metric in defined.items():
            row = summarise([r["metrics"][name]["value"] for r in runs])
            row.update(unit=metric["unit"], better=metric["better"])
            rows[name] = row
            bound = metric.get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = (" OVER BOUND" if row["spread"] > bound else
                        " over 1/3" if row["spread"] > bound / 3 else "")
            print(f"  {name:<34} {row['median']:>12.6g} {row['q1']:>12.6g} "
                  f"{row['q3']:>12.6g} {row['spread']:>7.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
        summary[workload] = rows
    if args.record:
        document = {}
        if BASELINE_PATH.is_file():
            with open(BASELINE_PATH) as f:
                document = json.load(f)
        document.setdefault("baselines", {})[args.record] = {
            "seeds": seeds,
            "run_seconds": spec["run_seconds"],
            "trace": args.trace,
            "workloads": summary,
        }
        with open(BASELINE_PATH, "w") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
