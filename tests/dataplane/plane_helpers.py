"""Helper builders shared by data-plane and platform tests."""

from repro.functions import FnContext, FunctionInstance, get_spec


def make_gpu_ctx(env, node, gpu_index, model="yolo-det", workflow_id="wf-0",
                 request_id="req-0", slo_deadline=None):
    """A GPU-function context placed on a specific GPU."""
    instance = FunctionInstance(
        env,
        get_spec(model),
        node,
        gpu=node.gpu(gpu_index),
    )
    return FnContext(
        instance, workflow_id, request_id, slo_deadline=slo_deadline
    )


def make_cpu_ctx(env, node, model="video-decode", workflow_id="wf-0",
                 request_id="req-0"):
    """A CPU-function context on a node's host."""
    instance = FunctionInstance(env, get_spec(model), node)
    return FnContext(instance, workflow_id, request_id)


def register(plane, workflow_id="wf-0", functions=None):
    """Register function names for access control."""
    names = functions if functions is not None else [
        "yolo-det", "person-rec", "car-rec", "video-decode",
        "gpu-preprocess", "unet-seg", "gpu-denoise",
    ]
    plane.acl.register_workflow(workflow_id, names)


def put_get(env, plane, src_ctx, dst_ctx, size, expected_consumers=1):
    """Run one Put followed by one Get; return timing details."""
    out = {}

    def flow():
        t_put = env.now
        ref = yield plane.put(src_ctx, size, expected_consumers=expected_consumers)
        out["put_latency"] = env.now - t_put
        t_get = env.now
        result = yield plane.get(dst_ctx, ref)
        out["get_latency"] = env.now - t_get
        out["end_to_end"] = env.now - t_put
        out["ref"] = ref
        out["result"] = result

    env.process(flow())
    env.run()
    return out
