"""Edge-case tests for data-plane internals."""

import pytest

from repro.common.errors import StorageError
from repro.common.units import GB, MB
from repro.dataplane import (
    CAT_GFN_GFN_INTRA,
    GRouterPlane,
    HostCentricPlane,
    NvshmemPlane,
)
from repro.sim import Environment
from repro.topology import make_cluster

from plane_helpers import make_cpu_ctx, make_gpu_ctx, put_get, register


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster():
    return make_cluster("dgx-v100", num_nodes=2)


class TestIngressAndClaims:
    def test_ingress_put_registers_host_object(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        ref = plane.ingress_put("n0", 10 * MB, "wf-0", expected_consumers=2)
        assert ref.object_id in plane.catalog
        assert plane.host_stores["n0"].resident_bytes == 10 * MB

    def test_ingress_put_invalid_size(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        with pytest.raises(StorageError):
            plane.ingress_put("n0", 0.0, "wf-0")

    def test_release_claim_counts_down(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        ref = plane.ingress_put("n0", 10 * MB, "wf-0", expected_consumers=2)
        plane.release_claim(ref)
        assert ref.object_id in plane.catalog
        plane.release_claim(ref)
        assert ref.object_id not in plane.catalog
        assert plane.host_stores["n0"].resident_bytes == 0

    def test_release_claim_unknown_is_noop(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        ref = plane.ingress_put("n0", 10 * MB, "wf-0")
        plane.release_claim(ref)
        plane.release_claim(ref)  # already destroyed: no error


class TestMetricsAccounting:
    def test_put_get_counters(self, env, cluster):
        plane = HostCentricPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 1, model="person-rec")
        put_get(env, plane, src, dst, size=10 * MB)
        assert plane.metrics.puts == 1
        assert plane.metrics.gets == 1
        assert plane.metrics.copies == 2  # D2H + H2D
        assert plane.metrics.bytes_moved() == pytest.approx(2 * 10 * MB)

    def test_transfers_counted_by_category(self, env, cluster):
        plane = HostCentricPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 1, model="person-rec")
        put_get(env, plane, src, dst, size=10 * MB)
        assert plane.metrics.transfers == {"gfn-host": 2}
        assert plane.metrics.bytes_moved("gfn-host") == 2 * 10 * MB
        assert plane.metrics.bytes_moved(CAT_GFN_GFN_INTRA) == 0.0


class TestGRouterVariants:
    def test_harvesting_off_uses_single_host_path(self, env):
        cluster = make_cluster("dgx-v100")
        plane = GRouterPlane(env, cluster, harvesting=False)
        node = cluster.nodes[0]
        paths = plane._host_paths(node, node.gpu(0), "to_host")
        assert len(paths) == 1

    def test_harvesting_on_uses_parallel_paths(self, env):
        cluster = make_cluster("dgx-v100")
        plane = GRouterPlane(env, cluster)
        node = cluster.nodes[0]
        paths = plane._host_paths(node, node.gpu(0), "to_host")
        assert len(paths) == 3  # direct + 2 NVLink-reachable uplinks

    def test_rate_control_off_under_maxmin_policy(self, env):
        cluster = make_cluster("dgx-v100")
        plane = GRouterPlane(env, cluster, network_policy="maxmin")
        ctx = make_gpu_ctx(env, cluster.nodes[0], 0, slo_deadline=1.0)
        assert plane._rate_least(ctx, 100 * MB) == 0.0

    def test_rate_control_on_under_slo_gated(self, env):
        cluster = make_cluster("dgx-v100")
        plane = GRouterPlane(env, cluster)
        ctx = make_gpu_ctx(env, cluster.nodes[0], 0,
                           slo_deadline=env.now + 0.01)
        rate = plane._rate_least(ctx, 100 * MB)
        assert rate == pytest.approx(100 * MB / 0.01, rel=0.01)

    def test_cfn_put_stays_in_host_memory(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        register(plane)
        src = make_cpu_ctx(env, cluster.nodes[0])

        def flow():
            ref = yield plane.put(src, 50 * MB)
            _, obj = plane.catalog.lookup(ref.object_id, "n0")
            assert obj.host_replicas()
            assert not obj.gpu_replicas()
            plane.release_claim(ref)

        proc = env.process(flow())
        env.run()
        assert proc.ok


class TestNvshmemSaturation:
    def test_symmetric_overflow_counter(self, env):
        # Tiny GPUs: symmetric shadows cannot all fit.
        from repro.topology import NodeSpec
        from repro.topology.cluster import ClusterTopology
        from repro.topology.node import NodeTopology

        spec = NodeSpec(
            name="tiny",
            num_gpus=4,
            gpu_memory=1 * GB,
            pcie_bandwidth=12 * GB,
            switch_groups=((0, 1), (2, 3)),
            nics_per_switch=1,
            nic_bandwidth=12 * GB,
            nvswitch_bandwidth=24 * GB,
        )
        cluster = ClusterTopology([NodeTopology(spec, 0)])
        plane = NvshmemPlane(env, cluster, seed=0, pool_prewarm=0.0)
        register(plane)
        node = cluster.nodes[0]

        def flow():
            refs = []
            for i in range(6):
                ctx = make_gpu_ctx(env, node, 0, request_id=f"r{i}")
                refs.append((yield plane.put(ctx, 300 * MB)))

        env.process(flow())
        env.run()
        assert plane.symmetric_overflows > 0
