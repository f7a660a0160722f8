"""Record the expected digests and simulated metrics of chosen seeds.

    python3 perfbench/record.py

Replays every trace of the tuning seed and of the held-out seed once per
workload and writes ``perfbench/expected.json``.  The benchmark's gate
then fails any run at these seeds whose digests differ.  The held-out
seed is never used while tuning the simulator, so a claim can be
re-checked on inputs nobody optimised for.  Re-record only on purpose,
when a change is meant to alter the simulation.
"""

from __future__ import annotations

import json
import sys

from harness import (
    EXPECTED_PATH,
    REQUESTS,
    SIM_METRICS,
    WORKLOADS,
    Replay,
    combine_digests,
    import_repro,
    sim_summary,
    trace_seeds,
)

TUNING_SEED = 0
HELD_OUT_SEED = 104729


def record(workload, seed: int) -> dict:
    results = [Replay(workload, s).run() for s in trace_seeds(seed)]
    for result in results:
        if result.completed != result.submitted:
            raise RuntimeError(
                f"{workload.name} trace {result.trace_seed}: "
                f"{result.completed} of {result.submitted} completed"
            )
    digests = [r.digest for r in results]
    sim = sim_summary(r.outcomes for r in results)
    return {
        "digest": combine_digests(digests),
        "trace_digests": digests,
        "completed": sum(r.completed for r in results),
        **{name: sim[name] for name in SIM_METRICS},
        "beyond_p99": sim["beyond_p99"],
    }


def main() -> int:
    import_repro()
    workloads = {}
    for name, workload in WORKLOADS.items():
        workloads[name] = {
            str(seed): record(workload, seed)
            for seed in (TUNING_SEED, HELD_OUT_SEED)
        }
        print(name, {s: r["digest"][:12] for s, r in workloads[name].items()})
    document = {
        "tuning_seed": TUNING_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "requests_per_trace": REQUESTS,
        "workloads": workloads,
    }
    with open(EXPECTED_PATH, "w") as f:
        json.dump(document, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
