"""Tests for function specs, profiles, and instances."""

import pytest

from repro.common.errors import ConfigError, SchedulingError
from repro.common.units import GB, MB, MS
from repro.functions import (
    MODEL_ZOO,
    ComputeProfile,
    DeviceKind,
    FnContext,
    FunctionInstance,
    FunctionSpec,
    OutputModel,
    get_spec,
)
from repro.sim import Environment, Resource
from repro.topology import NodeTopology, dgx_v100_spec


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def node():
    return NodeTopology(dgx_v100_spec(), 0)


class TestComputeProfile:
    def test_latency_components(self):
        profile = ComputeProfile(
            base_latency=10 * MS, per_item_latency=2 * MS, per_mb_latency=1 * MS
        )
        assert profile.latency(batch=4, input_bytes=3 * MB) == pytest.approx(
            (10 + 8 + 3) * MS
        )

    def test_speed_factor_scales(self):
        profile = ComputeProfile(base_latency=10 * MS)
        assert profile.latency(speed_factor=2.0) == pytest.approx(5 * MS)

    def test_invalid_batch(self):
        with pytest.raises(ConfigError):
            ComputeProfile(base_latency=1.0).latency(batch=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            ComputeProfile(base_latency=-1.0)


class TestOutputModel:
    def test_per_item_output(self):
        model = OutputModel(per_item=2 * MB)
        assert model.size(batch=4) == 8 * MB

    def test_factor_output(self):
        model = OutputModel(factor=0.5)
        assert model.size(input_bytes=10 * MB) == 5 * MB

    def test_minimum_one_byte(self):
        assert OutputModel().size() == 1.0


class TestFunctionSpec:
    def test_cpu_with_footprint_rejected(self):
        with pytest.raises(ConfigError):
            FunctionSpec(
                name="bad",
                kind=DeviceKind.CPU,
                compute=ComputeProfile(base_latency=1 * MS),
                output=OutputModel(),
                memory_footprint=1 * GB,
            )

    def test_default_slo_is_multiple_of_latency(self):
        spec = get_spec("yolo-det")
        latency = spec.execution_latency(batch=8)
        assert spec.default_slo(batch=8) == pytest.approx(1.5 * latency)

    def test_model_zoo_complete(self):
        # Every workflow in the suite resolves all its models.
        assert len(MODEL_ZOO) >= 15
        for name, spec in MODEL_ZOO.items():
            assert spec.name == name
            assert spec.execution_latency(batch=1) > 0

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            get_spec("gpt-17")

    def test_gpu_models_have_footprints(self):
        for spec in MODEL_ZOO.values():
            if spec.is_gpu:
                assert spec.memory_footprint > 0


class TestFunctionInstance:
    def test_gpu_instance_needs_gpu(self, env, node):
        with pytest.raises(SchedulingError):
            FunctionInstance(env, get_spec("yolo-det"), node)

    def test_cpu_instance_on_gpu_rejected(self, env, node):
        with pytest.raises(SchedulingError):
            FunctionInstance(
                env,
                get_spec("video-decode"),
                node,
                gpu=node.gpu(0),
            )

    def test_execute_takes_profiled_latency(self, env, node):
        spec = get_spec("yolo-det")
        instance = FunctionInstance(env, spec, node, gpu=node.gpu(0))
        proc = instance.execute_held(batch=8)
        env.run()
        record = proc.value
        assert record.duration == pytest.approx(spec.execution_latency(batch=8))

    def test_gpu_time_multiplexing(self, env, node):
        spec = get_spec("person-rec")
        shared = Resource(env, capacity=1)
        a = FunctionInstance(env, spec, node, gpu=node.gpu(0))
        b = FunctionInstance(env, spec, node, gpu=node.gpu(0))
        records = []

        def invoke(instance):
            # Hold the GPU slot around the invocation, as the platform does.
            slot = shared.request()
            yield slot
            records.append((yield instance.execute_held(batch=1)))
            shared.release(slot)

        env.process(invoke(a))
        env.process(invoke(b))
        env.run()
        # Same GPU: the second invocation queues behind the first.
        first, second = records
        assert second.started_at >= first.finished_at > first.started_at

    def test_speed_factor(self, env, node):
        spec = get_spec("unet-seg")
        fast = FunctionInstance(
            env, spec, node, gpu=node.gpu(0), speed_factor=2.0
        )
        proc = fast.execute_held(batch=1)
        env.run()
        assert proc.value.duration == pytest.approx(
            spec.execution_latency(batch=1) / 2.0
        )

    def test_cpu_instance_device_is_host(self, env, node):
        instance = FunctionInstance(env, get_spec("video-decode"), node)
        assert instance.device_id == "n0.host"
        assert not instance.is_gpu

    def test_fn_context_properties(self, env, node):
        instance = FunctionInstance(
            env, get_spec("yolo-det"), node, gpu=node.gpu(2)
        )
        ctx = FnContext(instance, workflow_id="wf-1", request_id="req-9")
        assert ctx.function_name == "yolo-det"
        assert ctx.device_id == "n0.g2"
        assert ctx.gpu.index == 2
        assert ctx.is_gpu
