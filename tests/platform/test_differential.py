"""Differential tests: the request path preserves seed behaviour.

``golden/requests_seed.json`` holds per-request outputs with every
float hex-encoded.  The ``fig14``/``fig14dense``/``fig15`` entries were
captured from the pre-refactor monolithic engine (commit b1f01ae) by
running the fig14/fig15-shaped workloads; the ``replicas2`` entries
were captured from the engine before its admission, dispatch,
autoscaling and bounded stage-queue policies were removed, running the
two-replica deployment the repository benchmark uses.  The request
path (every arrival admitted, unbounded stage queues, round-robin
replicas) must reproduce them bit-for-bit: same arrivals, same finish
times, same per-request compute/data breakdowns, same skipped
branches.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.experiments.harness import build_testbed, run_workload_on_plane
from repro.traces import Trace, TraceConfig
from repro.workflow import get_workload

GOLDEN = pathlib.Path(__file__).parent / "golden" / "requests_seed.json"


@pytest.fixture(scope="module")
def golden():
    with GOLDEN.open() as fh:
        return json.load(fh)


def full_row(r):
    return {
        "arrived_at": r.arrived_at.hex(),
        "finished_at": r.finished_at.hex(),
        "latency": r.latency.hex(),
        "compute_time": r.compute_time.hex(),
        "data_time": r.data_time.hex(),
        "stages": sorted(r.stage_records),
        "skipped": sorted(r.skipped_stages),
    }


class TestGoldenDifferential:
    @pytest.mark.parametrize("plane", ["grouter", "infless+"])
    @pytest.mark.parametrize("workflow", ["driving", "traffic"])
    def test_fig14_bursty_bit_identical(self, golden, plane, workflow):
        _tb, results, _wl = run_workload_on_plane(
            plane, workflow, pattern="bursty", rate=4.0, duration=8.0
        )
        assert [full_row(r) for r in results] == (
            golden[f"fig14/{plane}/{workflow}"]
        )

    @pytest.mark.parametrize("plane", ["grouter", "infless+"])
    def test_fig14_dense_bursty_bit_identical(self, golden, plane):
        _tb, results, _wl = run_workload_on_plane(
            plane, "driving", pattern="bursty", rate=8.0, duration=12.0
        )
        rows = [full_row(r) for r in results]
        expected = golden[f"fig14dense/{plane}/driving"]
        assert len(rows) == len(expected)
        assert rows == expected

    @pytest.mark.parametrize("plane", ["grouter", "infless+"])
    def test_fig15_uniform_bit_identical(self, golden, plane):
        testbed = build_testbed(plane_name=plane)
        deployment = testbed.platform.deploy(get_workload("driving"))
        arrivals = np.linspace(0.0, 6.0, int(6 * 6.0), endpoint=False)
        trace = Trace(
            config=TraceConfig(
                pattern="sporadic", rate=6.0, duration=6.0, seed=0
            ),
            arrivals=arrivals,
        )
        results = testbed.platform.run_trace(deployment, trace, drain=30.0)
        rows = [
            {
                "arrived_at": r.arrived_at.hex(),
                "finished_at": r.finished_at.hex(),
                "latency": r.latency.hex(),
            }
            for r in results
        ]
        assert rows == golden[f"fig15/{plane}/driving"]

    @pytest.mark.parametrize(
        "plane,workflow",
        [("grouter", "recognition"), ("deepplan+", "video")],
    )
    def test_two_replicas_bit_identical(self, golden, plane, workflow):
        """Round-robin over two replicas, the deployment perfbench runs."""
        _tb, results, _wl = run_workload_on_plane(
            plane, workflow, pattern="bursty", rate=4.0, duration=20.0,
            replicas=2,
        )
        rows = [full_row(r) for r in results]
        expected = golden[f"replicas2/{plane}/{workflow}"]
        assert len(rows) == len(expected) == 74
        assert rows == expected
