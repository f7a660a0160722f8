"""SLO evaluation against real seeded platform runs.

Two ends of the provisioning spectrum, both deterministic under a
fixed seed:

- a comfortably provisioned run must report 100% attainment with zero
  violation episodes and an all-ok health verdict;
- an under-provisioned run (arrival rate far above service capacity,
  tight latency target) must open at least one violation episode and
  close it with a finite, non-zero time-to-recovery.

Plus the reproducibility contract: folding the live event stream and
replaying the JSONL spool must yield byte-identical health documents.
"""

import json

import pytest

from repro.experiments.harness import run_workload_on_plane
from repro.telemetry import build_health, capture, default_specs
from repro.telemetry.sinks import JsonlEventSink


def run_captured(tmp_path, rate, duration=4.0):
    spool = tmp_path / "events.jsonl"
    with capture(sinks=[JsonlEventSink(str(spool))],
                 keep_events=True) as session:
        run_workload_on_plane(
            "grouter", "driving", duration=duration, rate=rate, seed=0,
        )
    return session, spool


GENEROUS = default_specs(
    latency_s=60.0, ttft_s=60.0, data_share_max=0.999,
    objective=0.95, window=5.0,
)
# Far below any achievable request latency in this simulator, so an
# under-provisioned run is guaranteed to burn its error budget.
TIGHT = default_specs(
    latency_s=1e-3, ttft_s=60.0, data_share_max=0.999,
    objective=0.95, window=5.0,
)


class TestHealthyRun:
    def test_full_attainment_and_all_ok(self, tmp_path):
        session, _spool = run_captured(tmp_path, rate=4.0)
        health = build_health(session.events, GENEROUS)
        assert health["overall"] == "ok"
        assert health["total_episodes"] == 0
        assert health["attainment"] == {
            "latency": 1.0, "ttft": 1.0, "data_share": 1.0,
        }
        (run,) = health["runs"]
        assert run["plane"] == "grouter"
        assert run["anomalies"] == []
        assert all(entity["verdict"] == "ok"
                   for entity in run["entities"].values())

    def test_run_produced_real_traffic(self, tmp_path):
        session, _spool = run_captured(tmp_path, rate=4.0)
        health = build_health(session.events, GENEROUS)
        (run,) = health["runs"]
        assert run["slo"]["latency"]["total"] >= 3
        assert run["t_end"] > 0.0
        # Entity series actually populated from the stream.
        assert any(name.startswith("link.util.")
                   for name in run["entities"])
        assert any(name.startswith("replica.outstanding.")
                   for name in run["entities"])


class TestUnderProvisionedRun:
    def test_violation_episode_with_finite_ttr(self, tmp_path):
        session, _spool = run_captured(tmp_path, rate=12.0, duration=8.0)
        health = build_health(session.events, TIGHT)
        assert health["overall"] == "violated"
        assert health["total_episodes"] >= 1
        (run,) = health["runs"]
        latency = run["slo"]["latency"]
        assert latency["attainment"] < 0.95
        assert latency["worst_burn"] > 1.0
        episodes = latency["episodes"]
        assert len(episodes) >= 1
        for episode in episodes:
            # finalize() closed every episode at a finite time.
            assert episode["ttr"] is not None
            assert episode["ttr"] < float("inf")
        # At least one episode persisted for a measurable span.
        assert any(episode["ttr"] > 0.0 for episode in episodes)

    def test_plane_entity_marked_violated(self, tmp_path):
        session, _spool = run_captured(tmp_path, rate=12.0, duration=8.0)
        health = build_health(session.events, TIGHT)
        (run,) = health["runs"]
        assert run["entities"]["plane.grouter"]["verdict"] == "violated"


class TestSpoolReplayIdentity:
    @pytest.mark.parametrize("rate,duration,specs", [
        (4.0, 4.0, GENEROUS),
        (12.0, 8.0, TIGHT),
    ], ids=["healthy", "underprovisioned"])
    def test_live_and_replay_are_byte_identical(self, tmp_path, rate,
                                                duration, specs):
        session, spool = run_captured(tmp_path, rate=rate,
                                      duration=duration)
        live = build_health(session.events, specs)
        replayed = build_health(str(spool), specs)
        assert (json.dumps(live, sort_keys=True)
                == json.dumps(replayed, sort_keys=True))
