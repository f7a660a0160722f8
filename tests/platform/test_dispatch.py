"""Tests for round-robin replica dispatch."""

from repro.dataplane import make_plane
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.topology import make_cluster
from repro.workflow import get_workload


def make_platform():
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane("grouter", env, cluster)
    return ServerlessPlatform(env, cluster, plane)


class TestRoundRobinIntegration:
    def test_requests_spread_over_replicas_under_fanout(self):
        """Round-robin alternates whole requests across replica sets."""
        platform = make_platform()
        deployment = platform.deploy(get_workload("video"), replicas=2)
        procs = [platform.submit(deployment) for _ in range(4)]
        platform.env.run()
        assert all(p.ok for p in procs)
        # Every stage (including the fan-out detectors) has two
        # replicas; with 4 requests each replica served exactly 2.
        for stage_name, replicas in deployment.replica_sets.items():
            assert len(replicas) == 2
            counts = [len(r.executions) for r in replicas]
            assert counts == [2, 2], stage_name

    def test_single_replica_serves_everything(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"))
        for _ in range(3):
            platform.submit(deployment)
        platform.env.run()
        for replicas in deployment.replica_sets.values():
            assert len(replicas[0].executions) == 3

    def test_outstanding_counter_returns_to_zero(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("traffic"), replicas=2)
        for _ in range(5):
            platform.submit(deployment)
        platform.env.run()
        for replicas in deployment.replica_sets.values():
            assert all(r.outstanding == 0 for r in replicas)
