"""Tests for spatial GPU sharing and static replica sets."""

import pytest

from repro.common.errors import SchedulingError
from repro.dataplane import make_plane
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.topology import make_cluster
from repro.traces import make_trace
from repro.workflow import get_workload


def make_platform(**kwargs):
    env = Environment()
    cluster = make_cluster("dgx-v100")
    plane = make_plane("grouter", env, cluster)
    return ServerlessPlatform(env, cluster, plane, **kwargs)


class TestSpatialSharing:
    def test_invalid_mode_rejected(self):
        with pytest.raises(SchedulingError):
            make_platform(gpu_sharing="quantum")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SchedulingError):
            make_platform(gpu_sharing="spatial", spatial_slots=0)
        with pytest.raises(SchedulingError):
            make_platform(gpu_sharing="spatial", spatial_slowdown=0.5)

    def test_spatial_slots_allow_concurrency(self):
        platform = make_platform(gpu_sharing="spatial", spatial_slots=2)
        assert platform.gpu_resources["n0.g0"].capacity == 2
        temporal = make_platform()
        assert temporal.gpu_resources["n0.g0"].capacity == 1

    def test_spatial_tenant_runs_slower(self):
        spatial = make_platform(
            gpu_sharing="spatial", spatial_slowdown=2.0
        )
        temporal = make_platform()
        dep_s = spatial.deploy(get_workload("driving"))
        dep_t = temporal.deploy(get_workload("driving"))
        proc_s = spatial.submit(dep_s)
        spatial.env.run()
        proc_t = temporal.submit(dep_t)
        temporal.env.run()
        assert proc_s.value.compute_time > proc_t.value.compute_time

    def test_spatial_increases_transfer_contention(self):
        # The paper's §7 point: spatial sharing admits concurrent
        # tenants, whose transfers then contend for the same links —
        # per-request data-passing time grows vs temporal sharing.
        data_times = {}
        for mode in ("temporal", "spatial"):
            platform = make_platform(
                gpu_sharing=mode, spatial_slots=4, spatial_slowdown=1.2
            )
            deployment = platform.deploy(get_workload("driving"))
            procs = [platform.submit(deployment) for _ in range(4)]
            platform.env.run()
            data_times[mode] = sum(
                p.value.data_time for p in procs
            ) / len(procs)
        assert data_times["spatial"] > data_times["temporal"]


class TestReplicas:
    def test_invalid_replicas(self):
        platform = make_platform()
        with pytest.raises(SchedulingError):
            platform.deploy(get_workload("driving"), replicas=0)

    def test_replica_sets_sizes(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"), replicas=3)
        for replicas in deployment.replica_sets.values():
            assert len(replicas) == 3

    def test_replicas_spread_over_gpus(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"), replicas=2)
        first = deployment.replica_sets["gpu-denoise"][0]
        second = deployment.replica_sets["gpu-denoise"][1]
        assert first.device_id != second.device_id

    def test_round_robin_dispatch(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"), replicas=2)
        a = deployment.instance_for("unet-seg", 0)
        b = deployment.instance_for("unet-seg", 1)
        c = deployment.instance_for("unet-seg", 2)
        assert a is not b
        assert a is c

    def test_replicas_raise_throughput(self):
        def run(replicas):
            platform = make_platform()
            deployment = platform.deploy(
                get_workload("driving"), replicas=replicas
            )
            trace = make_trace(
                "sporadic", rate=20.0, duration=5.0, seed=3
            )
            results = platform.run_trace(deployment, trace)
            return max(r.finished_at for r in results)

        assert run(4) < run(1)

    def test_instances_property_backward_compatible(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"), replicas=2)
        assert set(deployment.instances) == {
            "gpu-denoise", "unet-seg", "gpu-colorize"
        }
