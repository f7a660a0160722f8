"""Behavioural tests for the four data planes."""

import pytest

from repro.common.errors import AccessDeniedError
from repro.common.units import GB, MB
from repro.dataplane import (
    CAT_GFN_GFN_INTRA,
    CAT_GFN_HOST,
    DeepPlanPlane,
    GRouterPlane,
    HostCentricPlane,
    NvshmemPlane,
    make_plane,
)
from repro.dataplane.nvshmem import SYMMETRIC_TAG
from repro.sim import Environment
from repro.topology import make_cluster

from plane_helpers import make_cpu_ctx, make_gpu_ctx, put_get, register


class TestHostCentric:
    def test_gfn_put_copies_to_host(self, env, cluster):
        plane = HostCentricPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 3, model="person-rec")
        out = put_get(env, plane, src, dst, size=100 * MB)
        # Two PCIe legs: 100 MB at 12 GB/s each, roughly 8.3 ms per leg.
        assert out["put_latency"] == pytest.approx(100 * MB / (12 * GB), rel=0.2)
        assert out["get_latency"] == pytest.approx(100 * MB / (12 * GB), rel=0.2)
        # The object lived in the host store, never in a GPU store.
        assert plane.total_storage_bytes() == 0
        assert set(plane.metrics.transfers) == {CAT_GFN_HOST}

    def test_cfn_cfn_is_cheap(self, env, cluster):
        plane = HostCentricPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        src = make_cpu_ctx(env, node)
        dst = make_cpu_ctx(env, node, model="video-decode")
        out = put_get(env, plane, src, dst, size=100 * MB)
        assert out["end_to_end"] < 1e-3  # shared memory, microseconds

    def test_cross_node_goes_host_to_host(self, env, cluster):
        plane = HostCentricPlane(env, cluster)
        register(plane)
        src = make_gpu_ctx(env, cluster.nodes[0], 0)
        dst = make_gpu_ctx(env, cluster.nodes[1], 0, model="person-rec")
        out = put_get(env, plane, src, dst, size=100 * MB)
        assert "host-host" in plane.metrics.transfers
        # PCIe down + NIC + PCIe up: much slower than intra-node.
        assert out["end_to_end"] > 100 * MB / (12 * GB) * 2

    def test_object_deleted_after_consumption(self, env, cluster):
        plane = HostCentricPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 1, model="person-rec")
        out = put_get(env, plane, src, dst, size=10 * MB)
        assert out["ref"].object_id not in plane.catalog
        assert plane.host_stores["n0"].resident_bytes == 0


class TestNvshmem:
    def test_storage_gpu_is_random_not_local(self, env, cluster):
        plane = NvshmemPlane(env, cluster, seed=3)
        register(plane)
        node = cluster.nodes[0]
        # Over several puts, storage lands on GPUs other than the
        # producer's at least once (random placement).
        devices = set()

        def flow():
            for i in range(6):
                ctx = make_gpu_ctx(env, node, 0, request_id=f"r{i}")
                ref = yield plane.put(ctx, 10 * MB)
                _, obj = plane.catalog.lookup(ref.object_id, "n0")
                devices.add(plane._gpu_location_of(obj))

        env.process(flow())
        env.run()
        assert len(devices) > 1

    def test_symmetric_memory_reserved_on_all_gpus(self, env, cluster):
        plane = NvshmemPlane(env, cluster, seed=0)
        register(plane)
        node = cluster.nodes[0]
        ctx = make_gpu_ctx(env, node, 0)

        def flow():
            yield plane.put(ctx, 64 * MB)

        env.process(flow())
        env.run()
        symmetric = [
            plane.device_memory[g.device_id].used_by(SYMMETRIC_TAG)
            for g in node.gpus
        ]
        # 7 GPUs carry the symmetric shadow; the storage GPU holds the
        # real bytes in its pool.
        assert symmetric.count(64 * MB) == 7

    def test_intra_node_costs_two_copies(self, env, cluster):
        plane = NvshmemPlane(env, cluster, seed=1)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 3, model="person-rec")
        put_get(env, plane, src, dst, size=100 * MB)
        # Unless randomly lucky, put + get each moved the bytes once.
        assert 1 <= plane.metrics.transfers[CAT_GFN_GFN_INTRA] <= 2

    def test_cross_node_triple_bounce(self, env, cluster):
        plane = NvshmemPlane(env, cluster, seed=5)
        register(plane)
        src = make_gpu_ctx(env, cluster.nodes[0], 0)
        dst = make_gpu_ctx(env, cluster.nodes[1], 0, model="person-rec")
        put_get(env, plane, src, dst, size=50 * MB)
        assert "gfn-gfn-cross" in plane.metrics.transfers
        # Total copies: put hop (likely) + NIC hop + local delivery hop.
        assert plane.metrics.copies >= 2

    def test_symmetric_memory_released_on_delete(self, env, cluster):
        plane = NvshmemPlane(env, cluster, seed=0)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 1, model="person-rec")
        put_get(env, plane, src, dst, size=32 * MB)
        for gpu in node.gpus:
            assert plane.device_memory[gpu.device_id].used_by(
                SYMMETRIC_TAG
            ) == 0


class TestDeepPlan:
    def test_parallel_pcie_beats_nvshmem_for_host_pull(self, env):
        # cFn produces; gFn consumes -> host-to-GPU staging dominates.
        results = {}
        for plane_cls in (NvshmemPlane, DeepPlanPlane):
            env_i = Environment()
            cluster_i = make_cluster("dgx-a100")  # symmetric: no relay tax
            plane = plane_cls(env_i, cluster_i, seed=0)
            register(plane)
            node = cluster_i.nodes[0]
            src = make_cpu_ctx(env_i, node)
            dst = make_gpu_ctx(env_i, node, 0, model="yolo-det")
            out = put_get(env_i, plane, src, dst, size=400 * MB)
            results[plane_cls.name] = out["end_to_end"]
        assert results["deepplan+"] < results["nvshmem+"]

    def test_uses_multiple_paths(self, env, cluster):
        plane = DeepPlanPlane(env, cluster, seed=0)
        register(plane)
        node = cluster.nodes[0]
        paths = plane._parallel_host_paths(node, node.gpu(0), "to_host")
        assert len(paths) == 4  # direct + 3 borrowed switches (naive)


class TestGRouter:
    def test_put_is_local_zero_copy(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        ctx = make_gpu_ctx(env, node, 2)

        def flow():
            ref = yield plane.put(ctx, 100 * MB)
            _, obj = plane.catalog.lookup(ref.object_id, "n0")
            assert plane._gpu_location_of(obj) == "n0.g2"

        env.process(flow())
        env.run()
        # No transfers: the data never moved.
        assert plane.metrics.transfers == {}

    def test_get_single_direct_copy(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 3, model="person-rec")
        put_get(env, plane, src, dst, size=100 * MB)
        # Exactly one movement of the bytes.
        assert plane.metrics.transfers == {CAT_GFN_GFN_INTRA: 1}

    def test_same_gpu_get_is_zero_copy(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 0, model="person-rec")
        out = put_get(env, plane, src, dst, size=500 * MB)
        assert out["get_latency"] < 1e-3
        assert plane.metrics.transfers == {}

    def test_beats_baselines_intra_node(self, env):
        latencies = {}
        for name in ("infless+", "nvshmem+", "deepplan+", "grouter"):
            env_i = Environment()
            cluster_i = make_cluster("dgx-v100")
            plane = make_plane(name, env_i, cluster_i)
            register(plane)
            node = cluster_i.nodes[0]
            src = make_gpu_ctx(env_i, node, 0)
            dst = make_gpu_ctx(env_i, node, 3, model="person-rec")
            out = put_get(env_i, plane, src, dst, size=256 * MB)
            latencies[name] = out["end_to_end"]
        assert latencies["grouter"] < latencies["nvshmem+"]
        assert latencies["grouter"] < latencies["deepplan+"]
        assert latencies["grouter"] < latencies["infless+"]

    def test_beats_baselines_cross_node(self, env):
        latencies = {}
        for name in ("infless+", "nvshmem+", "grouter"):
            env_i = Environment()
            cluster_i = make_cluster("dgx-v100", num_nodes=2)
            plane = make_plane(name, env_i, cluster_i)
            register(plane)
            src = make_gpu_ctx(env_i, cluster_i.nodes[0], 0)
            dst = make_gpu_ctx(
                env_i, cluster_i.nodes[1], 0, model="person-rec"
            )
            out = put_get(env_i, plane, src, dst, size=256 * MB)
            latencies[name] = out["end_to_end"]
        assert latencies["grouter"] < latencies["nvshmem+"]
        assert latencies["grouter"] < latencies["infless+"]

    def test_weak_pair_uses_parallel_nvlink(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        # GPUs 0 and 5 have no direct NVLink.
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 5, model="person-rec")
        out = put_get(env, plane, src, dst, size=256 * MB)
        # Aggregated 2-hop NVLink paths beat a single PCIe p2p route.
        single_pcie = 256 * MB / (12 * GB)
        assert out["get_latency"] < single_pcie

    def test_ablation_flags_change_behaviour(self, env):
        # UF off -> storage on a random GPU: transfers appear on put.
        env_i = Environment()
        cluster_i = make_cluster("dgx-v100")
        plane = GRouterPlane(env_i, cluster_i, unified=False, seed=12)
        register(plane)
        node = cluster_i.nodes[0]

        def flow():
            for i in range(5):
                ctx = make_gpu_ctx(env_i, node, 0, request_id=f"r{i}")
                yield plane.put(ctx, 10 * MB)

        env_i.process(flow())
        env_i.run()
        assert sum(plane.metrics.transfers.values()) >= 1

    def test_acl_blocks_foreign_workflow(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        plane.acl.register_workflow("wf-0", ["yolo-det"])
        plane.acl.register_workflow("wf-1", ["person-rec"])
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0, workflow_id="wf-0")
        thief = make_gpu_ctx(
            env, node, 1, model="person-rec", workflow_id="wf-1"
        )
        denied = []

        def flow():
            ref = yield plane.put(src, 10 * MB)
            try:
                yield plane.get(thief, ref)
            except AccessDeniedError:
                denied.append(True)

        env.process(flow())
        env.run()
        assert denied == [True]

    def test_multi_consumer_object_survives_first_get(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        c1 = make_gpu_ctx(env, node, 1, model="person-rec")
        c2 = make_gpu_ctx(env, node, 3, model="car-rec")

        def flow():
            ref = yield plane.put(src, 10 * MB, expected_consumers=2)
            yield plane.get(c1, ref)
            assert ref.object_id in plane.catalog
            yield plane.get(c2, ref)
            assert ref.object_id not in plane.catalog

        proc = env.process(flow())
        env.run()
        assert proc.ok


class TestElasticStorage:
    def test_migration_on_pressure(self, env):
        cluster = make_cluster("dgx-v100")
        plane = GRouterPlane(
            env, cluster, storage_limit_fraction=0.02,  # ~320 MB of 16 GB
        )
        register(plane)
        node = cluster.nodes[0]

        def flow():
            refs = []
            for i in range(4):
                ctx = make_gpu_ctx(env, node, 0, request_id=f"r{i}")
                refs.append((yield plane.put(ctx, 150 * MB)))

        env.process(flow())
        env.run()
        # Early objects were pushed to host memory to make room.
        assert plane.host_stores["n0"].resident_bytes > 0
        assert plane.metrics.transfers["migration"] >= 1

    def test_elastic_pool_trims_when_idle(self, env):
        cluster = make_cluster("dgx-v100")
        plane = GRouterPlane(env, cluster, min_pool=50 * MB)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 1, model="person-rec")
        put_get(env, plane, src, dst, size=1 * GB)
        # Let the trim loop run well past the prewarm window.
        env.run(until=env.now + 30.0)
        assert plane.pools["n0.g0"].reserved <= 51 * MB

    def test_static_pool_without_es_keeps_reservation(self, env):
        cluster = make_cluster("dgx-v100")
        plane = GRouterPlane(env, cluster, elastic_storage=False)
        register(plane)
        node = cluster.nodes[0]
        src = make_gpu_ctx(env, node, 0)
        dst = make_gpu_ctx(env, node, 1, model="person-rec")
        put_get(env, plane, src, dst, size=1 * GB)
        env.run(until=env.now + 30.0)
        assert plane.pools["n0.g0"].reserved == pytest.approx(1 * GB)
