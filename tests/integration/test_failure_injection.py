"""Failure-injection tests: the system degrades cleanly, never hangs."""

import pytest

from repro.common.errors import (
    AccessDeniedError,
    SimulationError,
    StorageError,
)
from repro.common.units import GB, MB
from repro.dataplane import GRouterPlane, make_plane
from repro.functions import FnContext, FunctionInstance, get_spec
from repro.platform import ServerlessPlatform
from repro.sim import Environment
from repro.topology import make_cluster
from repro.workflow import get_workload


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster():
    return make_cluster("dgx-v100")


def gpu_ctx(env, node, index, model="yolo-det", workflow_id="wf-0"):
    instance = FunctionInstance(
        env, get_spec(model), node, gpu=node.gpu(index),
    )
    return FnContext(instance, workflow_id, "req-0")


class TestTransferFailures:
    def test_cancelled_flow_surfaces_to_get(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        plane.acl.register_workflow("wf-0", ["yolo-det", "person-rec"])
        node = cluster.nodes[0]
        src = gpu_ctx(env, node, 0)
        dst = gpu_ctx(env, node, 3, model="person-rec")
        outcome = []

        def flow():
            ref = yield plane.put(src, 256 * MB)
            get_proc = plane.get(dst, ref)

            def saboteur():
                yield env.timeout(1e-3)
                for active in list(plane.network.active_flows):
                    plane.network.cancel_flow(active)

            env.process(saboteur())
            try:
                yield get_proc
                outcome.append("ok")
            except SimulationError:
                outcome.append("failed")

        env.process(flow())
        env.run()
        assert outcome == ["failed"]
        # The network is clean afterwards: nothing keeps flowing.
        assert plane.network.active_flows == set()

    def test_get_after_delete_raises_storage_error(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        plane.acl.register_workflow("wf-0", ["yolo-det", "person-rec"])
        node = cluster.nodes[0]
        src = gpu_ctx(env, node, 0)
        dst = gpu_ctx(env, node, 1, model="person-rec")
        caught = []

        def flow():
            ref = yield plane.put(src, 10 * MB)
            plane.delete(ref)
            try:
                yield plane.get(dst, ref)
            except StorageError:
                caught.append(True)

        env.process(flow())
        env.run()
        assert caught == [True]

    def test_double_consumption_raises(self, env, cluster):
        plane = GRouterPlane(env, cluster)
        plane.acl.register_workflow("wf-0", ["yolo-det", "person-rec"])
        node = cluster.nodes[0]
        src = gpu_ctx(env, node, 0)
        dst = gpu_ctx(env, node, 1, model="person-rec")
        caught = []

        def flow():
            ref = yield plane.put(src, 10 * MB, expected_consumers=1)
            yield plane.get(dst, ref)
            try:
                yield plane.get(dst, ref)
            except StorageError:
                caught.append(True)

        env.process(flow())
        env.run()
        assert caught == [True]


class TestPlatformFailures:
    def test_unauthorized_stage_fails_request_not_simulator(self):
        env = Environment()
        cluster = make_cluster("dgx-v100")
        plane = make_plane("grouter", env, cluster)
        platform = ServerlessPlatform(env, cluster, plane)
        deployment = platform.deploy(get_workload("driving"))
        # Sabotage the ACL after deployment: the workflow's functions
        # lose access to their own data mid-flight.
        plane.acl._workflow_members[deployment.workflow_id].clear()
        proc = platform.submit(deployment)
        with pytest.raises(AccessDeniedError):
            env.run()
        assert not proc.triggered or not proc.ok

    def test_oversized_object_spills_to_host(self):
        # An object bigger than the whole storage limit is admitted to
        # host memory instead of crashing the put.
        env = Environment()
        cluster = make_cluster("dgx-v100")
        plane = make_plane(
            "grouter", env, cluster, storage_limit_fraction=0.001
        )
        plane.acl.register_workflow("wf-0", ["yolo-det", "person-rec"])
        node = cluster.nodes[0]
        src = gpu_ctx(env, node, 0)

        def flow():
            ref = yield plane.put(src, 1 * GB)
            _, obj = plane.catalog.lookup(ref.object_id, "n0")
            assert obj.host_replicas()  # spilled to host

        proc = env.process(flow())
        env.run()
        assert proc.ok
