"""Workloads and the one-replay driver shared by the benchmark scripts.

A *replay* builds a fresh platform (``repro.platform.build_platform``),
deploys one workflow, and streams one bursty arrival trace through
``ServerlessPlatform.run_trace_streaming``.  Load is open-loop in
simulated time; on the host the replay is a batch that runs as fast as
it can.  Every completed request's simulated ``(latency, data_time)``
pair is kept in completion order and folded into a digest, which is the
correctness gate: a change meant only to speed the simulator up must
leave every digest unchanged.

The benchmark drives the simulator only through its public entry points
and imports it from this checkout's ``src`` directory, never from an
installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

PRESET = "dgx-v100"
NUM_NODES = 1
REPLICAS = 2
PATTERN = "bursty"
RATE = 4.0  # arrivals per simulated second
# Requests per arrival trace.  Pooled over a seed's traces, at least
# ten latency samples lie beyond the p99 (checked on every run).
REQUESTS = 1000
# Distinct arrival traces per benchmark seed.  Simulated statistics
# pool all of them, so they depend less on one trace's bursts.
TRACES_PER_SEED = 2


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in ``BENCHMARK.json``."""

    name: str
    plane: str
    workflow: str
    spool: bool  # gzip JSONL event spool and bounded metrics on


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grouter_recognition", "grouter", "recognition", False),
        Workload(
            "grouter_recognition_spooled", "grouter", "recognition", True
        ),
        Workload("deepplan_video", "deepplan+", "video", False),
    )
}


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no simulator source."""


def import_repro():
    """Import ``repro`` from this checkout's ``src``; raise if absent."""
    init = SRC / "repro" / "__init__.py"
    if not init.is_file():
        raise CheckoutError(f"simulator source not found at {init}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != init.resolve():
        raise CheckoutError(
            f"imported repro from {repro.__file__}, expected {init}"
        )
    return repro


def trace_seeds(seed: int) -> list[int]:
    """The arrival-trace seeds one benchmark seed expands to."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return [seed * TRACES_PER_SEED + k for k in range(TRACES_PER_SEED)]


def digest_outcomes(outcomes) -> str:
    """SHA-256 over ``repr(latency),repr(data_time)`` lines, in order."""
    h = hashlib.sha256()
    for _request_id, latency, data_time in outcomes:
        h.update(f"{latency!r},{data_time!r}\n".encode())
    return h.hexdigest()


def combine_digests(digests) -> str:
    """One digest for a benchmark seed from its per-trace digests."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


@dataclass
class ReplayResult:
    trace_seed: int
    submitted: int
    completed: int
    rejected: int
    wall_s: float  # host seconds of the replay itself, set-up excluded
    outcomes: list  # (request_id, latency_s, data_time_s), completion order
    spool_bytes: int
    platform: object

    @property
    def digest(self) -> str:
        return digest_outcomes(self.outcomes)

    @property
    def failed(self) -> int:
        """Rejected, errored or never completed requests."""
        return self.submitted - self.completed


class Replay:
    """A replay that is set up and ready to run.

    Construction is the set-up: with the spool on it opens the gzip
    JSONL sink under a telemetry capture, then builds the platform,
    deploys the workflow and constructs the arrival stream.
    """

    def __init__(
        self, workload: Workload, trace_seed: int,
        spool: Optional[bool] = None,
    ) -> None:
        from repro.platform import build_platform
        from repro.telemetry import JsonlEventSink, capture
        from repro.traces import stream_trace
        from repro.workflow import get_workload

        self.trace_seed = trace_seed
        self.outcomes: list = []
        self.sink = None
        self._exit = contextlib.ExitStack()
        try:
            if workload.spool if spool is None else spool:
                spool_dir = OUT_DIR / f"spool-{os.getpid()}"
                spool_dir.mkdir(parents=True, exist_ok=True)
                self._exit.callback(shutil.rmtree, spool_dir, True)
                self.sink = JsonlEventSink(spool_dir / "events.jsonl.gz")
                self._exit.enter_context(
                    capture(sinks=[self.sink], metrics_mode="bounded")
                )
            self.platform = build_platform(
                preset=PRESET,
                num_nodes=NUM_NODES,
                plane_name=workload.plane,
                result_sink=self._retire,
                keep_results=False,
            )
            self.deployment = self.platform.deploy(
                get_workload(workload.workflow),
                seed=trace_seed,
                replicas=REPLICAS,
            )
            # The limit pins the request count; the duration only
            # bounds the horizon, with slack for an unlucky seed.
            self.trace = stream_trace(
                PATTERN,
                rate=RATE,
                duration=1.25 * REQUESTS / RATE + 120.0,
                seed=trace_seed,
                limit=REQUESTS,
            )
        except BaseException:
            self._exit.close()
            raise

    def _retire(self, result) -> None:
        self.outcomes.append(
            (result.request_id, result.latency, result.data_time)
        )

    def first_arrival(self) -> float:
        """Draw the first arrival (iterating restarts the same stream)."""
        return next(iter(self.trace))

    def close(self) -> None:
        self._exit.close()

    def run(self) -> ReplayResult:
        """Replay the trace; closing the spool counts as replay time."""
        start = time.perf_counter()
        try:
            submitted = self.platform.run_trace_streaming(
                self.deployment, self.trace
            )
        finally:
            self.close()
        wall = time.perf_counter() - start
        return ReplayResult(
            trace_seed=self.trace_seed,
            submitted=submitted,
            completed=self.platform.completed_count,
            rejected=self.platform.rejection_count,
            wall_s=wall,
            outcomes=self.outcomes,
            spool_bytes=self.sink.bytes_written if self.sink else 0,
            platform=self.platform,
        )


SIM_METRICS = ("sim_latency_p50_ms", "sim_latency_p99_ms", "sim_data_mean_ms")


def sim_summary(outcome_lists) -> dict:
    """Simulated latency and data-passing statistics, pooled, in ms."""
    pooled = [o for outcomes in outcome_lists for o in outcomes]
    latency = [o[1] * 1e3 for o in pooled]
    data = [o[2] * 1e3 for o in pooled]
    p99 = statistics.quantiles(latency, n=100)[98]
    return {
        "sim_latency_p50_ms": statistics.median(latency),
        "sim_latency_p99_ms": p99,
        "sim_data_mean_ms": statistics.fmean(data),
        "samples": len(latency),
        "beyond_p99": sum(1 for x in latency if x > p99),
    }


def load_expected() -> dict:
    """Recorded digests and simulated metrics: workload -> seed -> record."""
    if not EXPECTED_PATH.is_file():
        return {}
    with open(EXPECTED_PATH) as f:
        return json.load(f)["workloads"]
