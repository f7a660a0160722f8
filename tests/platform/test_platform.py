"""Tests for the serverless platform and workflow engine."""

import pytest

from repro.common.units import MB
from repro.dataplane import GRouterPlane, HostCentricPlane, make_plane
from repro.platform import ServerlessPlatform, build_platform
from repro.sim import Environment
from repro.topology import make_cluster
from repro.traces import make_trace
from repro.workflow import get_workload


def make_platform(plane_name="grouter", preset="dgx-v100", num_nodes=1,
                  **plane_kwargs):
    env = Environment()
    cluster = make_cluster(preset, num_nodes=num_nodes)
    plane = make_plane(plane_name, env, cluster, **plane_kwargs)
    return ServerlessPlatform(env, cluster, plane)


def run_one(platform, workload_name="driving", batch=None):
    deployment = platform.deploy(get_workload(workload_name), batch=batch)
    proc = platform.submit(deployment)
    platform.env.run()
    return deployment, proc.value


class TestDeployment:
    def test_gpu_stages_get_gpus(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("traffic"))
        for stage in deployment.workflow.gpu_stages():
            instance = deployment.instances[stage.name]
            assert instance.gpu is not None
        for stage in deployment.workflow.cpu_stages():
            assert deployment.instances[stage.name].gpu is None

    def test_weights_reserved_on_device(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"))
        for stage in deployment.workflow.gpu_stages():
            device_id = deployment.instances[stage.name].device_id
            memory = platform.plane.device_memory[device_id]
            assert memory.used >= stage.spec.memory_footprint

    def test_static_size_propagation(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"), batch=8)
        workload = deployment.workload
        assert deployment.stage_inputs["gpu-denoise"] == workload.input_size(8)
        # denoise emits one decoded frame per item.
        assert deployment.stage_inputs["unet-seg"] == pytest.approx(8 * 24 * MB)

    def test_stage_slos_positive(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("traffic"))
        assert all(s > 0 for s in deployment.stage_slos.values())

    def test_mapa_places_neighbours_on_linked_gpus(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"))
        node = platform.cluster.nodes[0]
        a = deployment.instances["gpu-denoise"].gpu
        b = deployment.instances["unet-seg"].gpu
        # MAPA picks an NVLink-connected (or same) GPU for the successor.
        assert (
            a.device_id == b.device_id
            or node.nvlink_capacity(a.index, b.index) > 0
        )


class TestRequestExecution:
    def test_linear_workflow_completes(self):
        platform = make_platform()
        _dep, result = run_one(platform, "driving")
        assert result.latency > 0
        assert set(result.stage_records) == {
            "gpu-denoise", "unet-seg", "gpu-colorize"
        }
        assert result.compute_time > 0
        assert result.data_time > 0

    def test_fan_out_fan_in_completes(self):
        platform = make_platform()
        _dep, result = run_one(platform, "video")
        assert "face-rec" in result.stage_records
        # All four detector branches ran.
        detectors = [s for s in result.stage_records if s.startswith("face-det")]
        assert len(detectors) == 4

    def test_conditional_branches_sometimes_skip(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("traffic"), seed=123)
        skipped = []
        for _ in range(10):
            proc = platform.submit(deployment)
            platform.env.run()
            skipped.extend(proc.value.skipped_stages)
        # With p=0.9 per branch, ~2 of 20 branch executions skip.
        assert skipped  # at least one skip in 10 requests

    def test_no_objects_leak_after_requests(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"))
        for _ in range(3):
            proc = platform.submit(deployment)
            platform.env.run()
            assert proc.ok
        assert len(platform.plane.catalog) == 0
        assert platform.queue.depth == 0

    def test_grouter_beats_host_centric_end_to_end(self):
        latencies = {}
        for plane_name in ("infless+", "grouter"):
            platform = make_platform(plane_name)
            _dep, result = run_one(platform, "driving")
            latencies[plane_name] = result.latency
        assert latencies["grouter"] < latencies["infless+"]

    def test_data_time_dominates_host_centric(self):
        # The paper's Fig 3: data passing is the bulk of e2e latency for
        # the host-centric plane at meaningful batch sizes.
        platform = make_platform("infless+")
        _dep, result = run_one(platform, "driving", batch=16)
        assert result.data_time > result.compute_time

    def test_requests_queue_on_shared_gpu(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"))
        procs = [platform.submit(deployment) for _ in range(3)]
        platform.env.run()
        results = [p.value for p in procs]
        # Later requests wait for GPU slots: queued_time shows up.
        total_queued = sum(
            rec.queued_time
            for res in results
            for rec in res.stage_records.values()
        )
        assert total_queued > 0

    def test_egress_adds_gfn_host_record(self):
        platform = make_platform("grouter")
        run_one(platform, "driving")
        assert "gfn-host" in platform.plane.metrics.transfers


class TestTraceReplay:
    def test_run_trace_completes_all(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("image"))
        trace = make_trace("sporadic", rate=2.0, duration=5.0, seed=1)
        results = platform.run_trace(deployment, trace)
        assert len(results) == len(trace)
        assert all(r.latency > 0 for r in results)

    def test_bursty_trace_runs(self):
        platform = make_platform()
        deployment = platform.deploy(get_workload("driving"))
        trace = make_trace("bursty", rate=3.0, duration=5.0, seed=2)
        results = platform.run_trace(deployment, trace)
        assert len(results) == len(trace)

    def test_concurrent_traces(self):
        platform = make_platform()
        dep_a = platform.deploy(get_workload("driving"))
        dep_b = platform.deploy(get_workload("image"))
        trace = make_trace("sporadic", rate=1.0, duration=5.0, seed=3)
        results = platform.run_traces([(dep_a, trace), (dep_b, trace)])
        assert set(results) == {dep_a.workflow_id, dep_b.workflow_id}

    def test_build_platform_helper(self):
        platform = build_platform(plane_name="grouter")
        assert isinstance(platform.plane, GRouterPlane)
        platform2 = build_platform(plane_name="infless+")
        assert isinstance(platform2.plane, HostCentricPlane)
