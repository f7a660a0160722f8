"""Child processes of the benchmark.

``setup``: a fresh interpreter imports the simulator, sets one replay up
and prints ``ready`` once the first arrival is drawn, so the parent can
time set-up from process start.  ``replay``: replays one arrival trace
and prints its per-request outcomes as JSON (floats round-trip exactly);
the traced run uses it under the reference network modes.

    python3 perfbench/child.py setup --workload deepplan_video --seed 0
    python3 perfbench/child.py replay --workload deepplan_video --trace-seed 0
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import WORKLOADS, Replay, import_repro, trace_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "replay"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    import_repro()
    if args.mode == "setup":
        replay = Replay(workload, trace_seeds(args.seed)[0])
        replay.first_arrival()
        print("ready", flush=True)
        replay.close()
        return 0
    # The spool does not change the simulation, so the reference replay
    # of a spooled workload runs without it.
    result = Replay(workload, args.trace_seed, spool=False).run()
    json.dump({
        "submitted": result.submitted,
        "completed": result.completed,
        "outcomes": result.outcomes,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
