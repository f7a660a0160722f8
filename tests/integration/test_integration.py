"""Integration tests: cross-module invariants over full runs."""

import pytest

from repro.dataplane import PLANES, make_plane
from repro.dataplane.nvshmem import SYMMETRIC_TAG
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.topology import make_cluster
from repro.traces import make_trace
from repro.workflow import WORKLOADS, get_workload


def run_workload(plane_name, workload_name, preset="dgx-v100", num_nodes=1,
                 rate=4.0, duration=8.0, seed=1, **plane_kwargs):
    env = Environment()
    cluster = make_cluster(preset, num_nodes=num_nodes)
    plane = make_plane(plane_name, env, cluster, **plane_kwargs)
    platform = ServerlessPlatform(env, cluster, plane)
    deployment = platform.deploy(get_workload(workload_name))
    trace = make_trace("bursty", rate=rate, duration=duration, seed=seed)
    results = platform.run_trace(deployment, trace)
    return platform, results, trace


class TestEveryPlaneEveryWorkload:
    @pytest.mark.parametrize("plane_name", sorted(PLANES))
    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    def test_completes_all_requests(self, plane_name, workload_name):
        platform, results, trace = run_workload(
            plane_name, workload_name, rate=2.0, duration=5.0
        )
        assert len(results) == len(trace)
        assert all(r.latency > 0 for r in results)


class TestResourceLeakFreedom:
    @pytest.mark.parametrize("plane_name", sorted(PLANES))
    def test_no_objects_or_queue_left(self, plane_name):
        platform, _results, _trace = run_workload(plane_name, "traffic")
        plane = platform.plane
        assert len(plane.catalog) == 0
        assert platform.queue.depth == 0
        # Pools drained: nothing still allocated inside storage pools.
        for pool in plane.pools.values():
            assert pool.in_use == pytest.approx(0.0, abs=1.0)
        # Host stores drained too.
        for store in plane.host_stores.values():
            assert store.resident_bytes == 0

    def test_nvshmem_symmetric_fully_released(self):
        platform, _results, _trace = run_workload("nvshmem+", "driving")
        for memory in platform.plane.device_memory.values():
            assert memory.used_by(SYMMETRIC_TAG) == 0

    @pytest.mark.parametrize("plane_name", sorted(PLANES))
    def test_no_link_still_carrying_flows(self, plane_name):
        platform, _results, _trace = run_workload(plane_name, "video")
        assert platform.plane.network.active_flows == set()

    def test_pinned_ring_restored(self):
        platform, _results, _trace = run_workload("infless+", "driving")
        for ring in platform.plane.pinned.values():
            assert ring.level == pytest.approx(ring.capacity)


class TestDeterminism:
    def test_identical_runs_identical_latencies(self):
        a = run_workload("grouter", "traffic", seed=5)[1]
        b = run_workload("grouter", "traffic", seed=5)[1]
        assert [r.latency for r in a] == [r.latency for r in b]

    def test_different_seeds_differ(self):
        a = run_workload("grouter", "traffic", seed=5)[1]
        b = run_workload("grouter", "traffic", seed=6)[1]
        assert [r.latency for r in a] != [r.latency for r in b]


class TestCrossNodeExecution:
    @pytest.mark.parametrize("plane_name", sorted(PLANES))
    def test_forced_cross_node_placement_works(self, plane_name):
        env = Environment()
        cluster = make_cluster("dgx-v100", num_nodes=2)
        plane = make_plane(plane_name, env, cluster)
        platform = ServerlessPlatform(
            env, cluster, plane, placement="round-robin"
        )
        allowed = [cluster.nodes[i % 2].gpu(i // 2) for i in range(8)]
        deployment = platform.deploy(
            get_workload("driving"), allowed_gpus=allowed
        )
        devices = {
            inst.device_id.split(".")[0]
            for inst in deployment.instances.values()
        }
        assert devices == {"n0", "n1"}
        proc = platform.submit(deployment)
        env.run()
        assert proc.ok

    def test_grouter_cross_node_faster_than_host_centric(self):
        latencies = {}
        for plane_name in ("infless+", "grouter"):
            env = Environment()
            cluster = make_cluster("dgx-v100", num_nodes=2)
            plane = make_plane(plane_name, env, cluster)
            platform = ServerlessPlatform(
                env, cluster, plane, placement="round-robin"
            )
            allowed = [cluster.nodes[i % 2].gpu(i // 2) for i in range(8)]
            deployment = platform.deploy(
                get_workload("driving"), allowed_gpus=allowed
            )
            proc = platform.submit(deployment)
            env.run()
            latencies[plane_name] = proc.value.latency
        assert latencies["grouter"] < latencies["infless+"]
