"""Per-request golden of a benchmark-shaped replay, on two planes.

The replay has the shape of the repository benchmark's: one
``dgx-v100`` node, a two-replica deployment and a 300-request bursty
stream through ``run_trace_streaming``, at trace seed 6.  Each request's
``(latency, data_time)`` is kept by ``repr`` in completion order, for
``grouter`` on ``recognition`` and ``deepplan+`` on ``video``.

The DES breaks same-instant ties by posting order, so posting the
transfer engine's heap entries in another order can move requests
while every aggregate still looks plausible; perfbench's digests are
the only other check at this scale.  Starting a
transfer's paths in reverse order, for one, moves 68 of the grouter
requests here (the first is ``req-2``).

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python tests/platform/test_replay_golden.py
"""

import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden" / "replay300_seed6.json"
REQUESTS = 300
SEED = 6
RATE = 4.0
CASES = [("grouter", "recognition"), ("deepplan+", "video")]


def replay(plane: str, workflow: str) -> list:
    """``[request_id, repr(latency), repr(data_time)]`` per request."""
    from repro.platform import build_platform
    from repro.traces import stream_trace
    from repro.workflow import get_workload

    outcomes: list = []
    platform = build_platform(
        preset="dgx-v100",
        num_nodes=1,
        plane_name=plane,
        keep_results=False,
        result_sink=lambda r: outcomes.append(
            [r.request_id, repr(r.latency), repr(r.data_time)]
        ),
    )
    deployment = platform.deploy(
        get_workload(workflow), seed=SEED, replicas=2
    )
    trace = stream_trace(
        "bursty",
        rate=RATE,
        duration=1.25 * REQUESTS / RATE + 120.0,
        seed=SEED,
        limit=REQUESTS,
    )
    platform.run_trace_streaming(deployment, trace)
    return outcomes


@pytest.mark.parametrize("plane,workflow", CASES)
def test_replay_matches_golden(plane, workflow):
    expected = json.loads(GOLDEN.read_text())[f"{plane}/{workflow}"]
    got = replay(plane, workflow)
    assert len(expected) == REQUESTS
    for ours, want in zip(got, expected):
        assert ours == want, (
            f"{plane}/{workflow}: first divergence at {want[0]}: "
            f"got {ours!r}, golden {want!r}"
        )
    assert len(got) == len(expected)


if __name__ == "__main__":
    document = {
        f"{plane}/{workflow}": replay(plane, workflow)
        for plane, workflow in CASES
    }
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
