"""The serverless inference platform (INFless-style substrate, §5).

Ties together topology, data plane, placement, pre-warming and the
workflow engine.  The request path uses two sibling modules:

- :mod:`repro.platform.queueing` — the indexed pending-request
  structure backing GROUTER's eviction oracle, plus per-stage depth
  counters;
- :mod:`repro.platform.lifecycle` — the ARRIVED → stage spans →
  EGRESS → FINISHED state machine that owns :class:`RequestResult`
  construction and telemetry.

This module keeps the engine: :class:`Deployment` pins one workflow's
stages onto devices; :meth:`ServerlessPlatform.submit` drives one
request through the DAG:

1. the request is admitted on arrival and takes the deployment's next
   dispatch number, which picks its replica of every stage
   round-robin;
2. the request input lands in host memory (I/O ingress);
3. each stage waits for its (taken) in-edges, enters its stage queue,
   ``Get``s every input to its own device, executes on its time-shared
   GPU, and ``Put``s its output once for downstream consumers;
4. exit-stage outputs are drained to host memory (egress) — the
   gFn-host leg of Fig. 3's breakdown, accounted separately in
   ``RequestResult.egress_time``.

The engine's event sequence is bit-identical to the pre-refactor
monolith; ``tests/platform/test_differential.py`` pins that against
golden seed outputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.common.errors import SchedulingError
from repro.common.units import MS
from repro.dataplane.base import DataPlane
from repro.functions.instance import FnContext, FunctionInstance
from repro.functions.spec import (
    SPEED_FACTORS,
    ComputeProfile,
    DeviceKind,
    FunctionSpec,
    OutputModel,
)
from repro.platform.lifecycle import (
    RequestLifecycle,
    RequestResult,
    StageRecord,
)
from repro.platform.queueing import PendingQueue, StageQueue
from repro.scheduler.placement import (
    PlacementPolicy,
    PlacementResult,
    make_placement,
    publish_placement,
)
from repro.scheduler.prewarm import PrewarmManager
from repro.sim.core import Environment, Process
from repro.sim.resources import Resource
from repro.storage.objects import DataRef
from repro.topology.cluster import ClusterTopology
from repro.topology.devices import Gpu
from repro.topology.node import PCIE3_BW
from repro.traces.azure import Trace
from repro.workflow.dag import Stage, Workflow, WorkloadSpec

__all__ = [
    "Deployment",
    "RequestResult",
    "ServerlessPlatform",
    "StageRecord",
    "build_platform",
]

INGRESS = "__ingress__"
EGRESS = "__egress__"
SLO_FLOOR_SLACK = 1 * MS
#: CPU slots per node for CPU-side functions.
CPU_CAPACITY = 32


def _io_spec(name: str) -> FunctionSpec:
    return FunctionSpec(
        name=name,
        kind=DeviceKind.CPU,
        compute=ComputeProfile(base_latency=0.0),
        output=OutputModel(),
    )


@dataclass
class Deployment:
    """One workflow pinned onto the cluster.

    ``replica_sets`` maps each stage to one or more warm instances
    (``deploy(replicas=N)``, each replica placed independently);
    requests are spread over them round-robin by dispatch number.
    ``stage_queues`` count the requests inside each stage.
    ``instances`` keeps the first replica of each stage for
    convenience.
    """

    workflow_id: str
    workload: WorkloadSpec
    replica_sets: dict[str, list[FunctionInstance]]
    batch: int
    stage_inputs: dict[str, float]  # statically propagated input sizes
    stage_slos: dict[str, float]
    slo: Optional[float]
    # SLO-multiplier-scaled critical path (exec + nominal transfers):
    # the request-level deadline budget used for egress transfers.
    e2e_slo_estimate: float = 0.0
    rng: random.Random = field(default_factory=random.Random)
    ingress: FunctionInstance = None
    egress: FunctionInstance = None
    stage_queues: dict[str, StageQueue] = field(default_factory=dict)
    _dispatch_seq: int = 0

    @property
    def workflow(self) -> Workflow:
        return self.workload.workflow

    @property
    def instances(self) -> dict[str, FunctionInstance]:
        return {name: replicas[0] for name, replicas in self.replica_sets.items()}

    def next_dispatch(self) -> int:
        """Per-request sequence used to spread load over replicas."""
        seq = self._dispatch_seq
        self._dispatch_seq += 1
        return seq

    def instance_for(self, stage_name: str, dispatch: int) -> FunctionInstance:
        """The replica serving one request's stage: round-robin."""
        replicas = self.replica_sets[stage_name]
        return replicas[dispatch % len(replicas)]


class ServerlessPlatform:
    """Deploys workflows and executes requests over a data plane."""

    def __init__(
        self,
        env: Environment,
        cluster: ClusterTopology,
        plane: DataPlane,
        placement: str | PlacementPolicy = "mapa",
        prewarm: bool = True,
        slo_multiplier: float = 1.5,
        gpu_sharing: str = "temporal",
        spatial_slots: int = 2,
        spatial_slowdown: float = 1.3,
        result_sink: Optional[Callable[[RequestResult], None]] = None,
        keep_results: bool = True,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.plane = plane
        if isinstance(placement, str):
            placement = make_placement(placement)
        self.placement_policy = placement
        self.slo_multiplier = slo_multiplier
        self.prewarm_enabled = prewarm
        self.prewarmer = PrewarmManager()
        if gpu_sharing not in ("temporal", "spatial"):
            raise SchedulingError(
                f"unknown gpu_sharing mode {gpu_sharing!r}"
            )
        if spatial_slots < 1 or spatial_slowdown < 1.0:
            raise SchedulingError("invalid spatial sharing parameters")
        self.gpu_sharing = gpu_sharing
        self.spatial_slots = spatial_slots
        self.spatial_slowdown = spatial_slowdown
        slots = spatial_slots if gpu_sharing == "spatial" else 1
        self.gpu_resources: dict[str, Resource] = {
            gpu.device_id: Resource(env, capacity=slots)
            for gpu in cluster.all_gpus()
        }
        self.cpu_resources: dict[str, Resource] = {
            node.node_id: Resource(env, capacity=CPU_CAPACITY)
            for node in cluster.nodes
        }
        self.speed_factor = SPEED_FACTORS.get(
            cluster.nodes[0].spec.name, 1.0
        )
        self.queue = PendingQueue()
        plane.attach_queue_oracle(self.queue)
        self._instance_load: dict[str, int] = {}
        # Result retirement: with a result_sink and keep_results=False,
        # every completed RequestResult is folded into the sink and
        # dropped, so memory stays flat in request count.  The default
        # (no sink, keep_results=True) materializes the full lists the
        # experiments assert on.
        self.result_sink = result_sink
        self.keep_results = keep_results
        if not keep_results:
            # The plane's per-transfer accounting records are the other
            # per-request list; a streaming run drops them too (exact
            # byte/copy counters survive, latency distributions do not).
            plane.metrics.keep_records = False
        self.results: list[RequestResult] = []
        self.completed_count = 0
        # Every arrival is admitted, so this stays 0; perfbench's
        # harness still reports it as its ``rejected`` count.
        self.rejection_count = 0

    # -- deployment -----------------------------------------------------------
    def deploy(
        self,
        workload: WorkloadSpec,
        workflow_id: Optional[str] = None,
        batch: Optional[int] = None,
        allowed_gpus: Optional[Sequence[Gpu]] = None,
        slo: Optional[float] = None,
        seed: int = 0,
        replicas: int = 1,
        slo_multiplier: Optional[float] = None,
    ) -> Deployment:
        """Place and instantiate every stage of *workload*.

        ``replicas > 1`` provisions that many warm instances per stage
        (each placed independently), and requests are spread over them
        round-robin — the static horizontal scaling of serverless
        platforms.

        ``slo_multiplier`` overrides the platform default for this
        deployment: latency-critical services run tight multipliers,
        throughput-oriented ones looser, which is what steers GROUTER's
        SLO-gated bandwidth allocation between co-located workflows.
        """
        if replicas < 1:
            raise SchedulingError(f"replicas must be >= 1, got {replicas}")
        workflow = workload.workflow
        workflow_id = workflow_id or f"wf-{workflow.name}"
        batch = batch if batch is not None else workload.default_batch
        replica_sets: dict[str, list[FunctionInstance]] = {
            stage.name: [] for stage in workflow.topological_order()
        }
        for _replica in range(replicas):
            placement = self.placement_policy.place(
                workflow,
                self.cluster,
                load=self._instance_load,
                allowed_gpus=allowed_gpus,
            )
            publish_placement(
                self.env, self.placement_policy, workflow, placement
            )
            for stage in workflow.topological_order():
                replica_sets[stage.name].append(
                    self._instantiate(stage, placement)
                )
        self.plane.acl.register_workflow(
            workflow_id, workflow.function_names() + [INGRESS, EGRESS]
        )
        stage_inputs = self._propagate_sizes(workload, batch)
        multiplier = (
            slo_multiplier if slo_multiplier is not None
            else self.slo_multiplier
        )
        stage_slos = self._stage_slos(
            workflow, stage_inputs, batch, multiplier
        )
        entry_node = replica_sets[workflow.entry_stages[0].name][0].node
        ingress = FunctionInstance(self.env, _io_spec(INGRESS), entry_node)
        egress = FunctionInstance(self.env, _io_spec(EGRESS), entry_node)
        finish: dict[str, float] = {}
        for stage in workflow.topological_order():
            preds = workflow.predecessors(stage.name)
            start = max((finish[p] for p in preds), default=0.0)
            finish[stage.name] = start + stage_slos[stage.name]
        e2e_slo_estimate = max(finish.values())
        stage_queues = {
            stage.name: StageQueue(self.env, stage.name)
            for stage in workflow.topological_order()
        }
        deployment = Deployment(
            workflow_id=workflow_id,
            workload=workload,
            replica_sets=replica_sets,
            batch=batch,
            stage_inputs=stage_inputs,
            stage_slos=stage_slos,
            slo=slo,
            e2e_slo_estimate=e2e_slo_estimate,
            rng=random.Random(seed),
            ingress=ingress,
            egress=egress,
            stage_queues=stage_queues,
        )
        if self.prewarm_enabled:
            for replicas_list in replica_sets.values():
                for instance in replicas_list:
                    self.prewarmer.prewarm(instance.instance_id, self.env.now)
        return deployment

    def _instantiate(
        self, stage: Stage, placement: PlacementResult
    ) -> FunctionInstance:
        if stage.spec.is_gpu:
            device_id = placement.gpu_of(stage.name)
            gpu = self.cluster.gpu(device_id)
            node = self.cluster.node_of_device(device_id)
            effective_speed = self.speed_factor
            if self.gpu_sharing == "spatial":
                # Concurrent kernels interfere: each spatial tenant
                # runs slower than a temporally exclusive one.
                effective_speed = self.speed_factor / self.spatial_slowdown
            instance = FunctionInstance(
                self.env,
                stage.spec,
                node,
                gpu=gpu,
                speed_factor=effective_speed,
                alias=stage.name,
            )
            # Warm instances hold their model weights on the device.
            self.plane.device_memory[device_id].reserve(
                f"weights:{instance.instance_id}", stage.spec.memory_footprint
            )
            self._instance_load[device_id] = (
                self._instance_load.get(device_id, 0) + 1
            )
        else:
            node = self.cluster.nodes[0]
            instance = FunctionInstance(
                self.env,
                stage.spec,
                node,
                alias=stage.name,
            )
        instance.keep_executions = self.keep_results
        return instance

    # -- static size/SLO propagation -------------------------------------------
    def _propagate_sizes(
        self, workload: WorkloadSpec, batch: int
    ) -> dict[str, float]:
        """Expected input bytes per stage, ignoring branch probability."""
        workflow = workload.workflow
        inputs: dict[str, float] = {}
        outputs: dict[str, float] = {}
        for stage in workflow.topological_order():
            preds = workflow.predecessors(stage.name)
            if not preds:
                size = workload.input_size(batch)
            else:
                size = sum(
                    outputs[p] * workflow.edge(p, stage.name).fraction
                    for p in preds
                )
            inputs[stage.name] = size
            outputs[stage.name] = stage.spec.output_size(batch, size)
        return inputs

    def _stage_slos(
        self,
        workflow: Workflow,
        stage_inputs: dict[str, float],
        batch: int,
        multiplier: float,
    ) -> dict[str, float]:
        """Per-stage SLO: multiplier x (profiled exec + nominal transfer)."""
        slos = {}
        for stage in workflow.topological_order():
            exec_latency = stage.spec.execution_latency(
                batch, stage_inputs[stage.name], self.speed_factor
            )
            transfer = stage_inputs[stage.name] / PCIE3_BW
            slos[stage.name] = multiplier * (exec_latency + transfer)
        return slos

    # -- request execution ---------------------------------------------------
    def submit(self, deployment: Deployment) -> Process:
        """Run one request through the workflow.

        The process value is the request's :class:`RequestResult`.
        """
        request_id = self.plane.ids.next("req")
        return self.env.process(self._run_request(deployment, request_id))

    def _run_request(self, deployment: Deployment, request_id: str):
        workflow = deployment.workflow
        lifecycle = RequestLifecycle(
            self.env, request_id, workflow.name, slo=deployment.slo
        )
        dispatch = deployment.next_dispatch()
        self.queue.enqueue(request_id)
        result = lifecycle.result

        # Ingress: the request payload lands in host memory via I/O.
        entries = workflow.entry_stages
        ingress_ref = self.plane.ingress_put(
            deployment.ingress.node.node_id,
            deployment.workload.input_size(deployment.batch),
            deployment.workflow_id,
            expected_consumers=len(entries),
        )
        self.queue.bind_object(ingress_ref.object_id, request_id)

        done_events = {
            name: self.env.event() for name in workflow.stages
        }
        for stage in workflow.topological_order():
            self.env.process(
                self._run_stage(
                    deployment, lifecycle, stage, ingress_ref,
                    done_events, dispatch,
                )
            )
        exit_events = [done_events[s.name] for s in workflow.exit_stages]
        yield self.env.all_of(exit_events)

        # Egress: drain every exit stage's output to host memory.  The
        # drain shares the request's end-to-end deadline so SLO-gated
        # scheduling does not starve it behind foreground transfers.
        lifecycle.begin_egress()
        egress_deadline = result.arrived_at + (
            deployment.slo
            if deployment.slo is not None
            else deployment.e2e_slo_estimate
        )
        egress_ctx = FnContext(
            deployment.egress, deployment.workflow_id, request_id,
            slo_deadline=egress_deadline,
        )
        for exit_stage in workflow.exit_stages:
            payload = done_events[exit_stage.name].value
            if payload is None:
                continue
            started = self.env.now
            yield self.plane.get(egress_ctx, payload)
            record = result.stage_records[exit_stage.name]
            record.egress_time += self.env.now - started
            lifecycle.publish_span(
                exit_stage.name, "egress", started,
                deployment.egress.device_id,
            )
        self.queue.finish(request_id)
        result = lifecycle.finish()
        self.completed_count += 1
        if self.result_sink is not None:
            self.result_sink(result)
        if self.keep_results:
            self.results.append(result)
        return result

    def _run_stage(
        self,
        deployment: Deployment,
        lifecycle: RequestLifecycle,
        stage: Stage,
        ingress_ref: DataRef,
        done_events: dict,
        dispatch: int = 0,
    ):
        workflow = deployment.workflow
        request_id = lifecycle.request_id
        preds = workflow.predecessors(stage.name)
        inputs: list[DataRef] = []
        if not preds:
            inputs.append(ingress_ref)
        else:
            yield self.env.all_of([done_events[p] for p in preds])
            for pred in preds:
                upstream = done_events[pred].value
                if upstream is None:
                    continue  # upstream skipped
                edge = workflow.edge(pred, stage.name)
                if deployment.rng.random() <= edge.probability:
                    inputs.append(upstream)
                else:
                    # Branch not taken: release our claim on the data.
                    self.plane.release_claim(upstream)
            if not inputs:
                lifecycle.skip_stage(stage.name)
                done_events[stage.name].succeed(None)
                return

        stage_queue = deployment.stage_queues[stage.name]
        instance = deployment.instance_for(stage.name, dispatch)
        stage_queue.enter()
        instance.begin_work()
        try:
            ref = yield from self._execute_stage(
                deployment, lifecycle, stage, instance, inputs
            )
        finally:
            instance.end_work()
            stage_queue.leave()
        self.queue.bind_object(ref.object_id, request_id)
        done_events[stage.name].succeed(ref)

    def _execute_stage(
        self,
        deployment: Deployment,
        lifecycle: RequestLifecycle,
        stage: Stage,
        instance: FunctionInstance,
        inputs: list[DataRef],
    ):
        """Generator: one stage span on a chosen replica; returns its put."""
        workflow = deployment.workflow
        request_id = lifecycle.request_id
        record = lifecycle.begin_stage(stage.name)
        stage_slo = deployment.stage_slos[stage.name]
        exec_estimate = instance.execution_latency(
            deployment.batch, deployment.stage_inputs[stage.name]
        )

        # Acquire the device slot FIRST: inputs are fetched when the
        # function instance actually starts, so intermediate data waits
        # in storage while the invocation is queued (paper Fig. 11).
        if instance.is_gpu:
            resource = self.gpu_resources[instance.device_id]
        else:
            resource = self.cpu_resources[instance.node.node_id]
        ready_at = self.env.now
        slot = resource.request()
        yield slot
        record.queued_time = self.env.now - ready_at
        if record.queued_time > 0:
            lifecycle.publish_span(
                stage.name, "queue", ready_at, instance.device_id,
                replica=instance.instance_id,
            )

        # The transfer deadline reflects the slack the invocation has
        # *now* (queueing already consumed its share): this is what
        # SLO-gated rate control keys on (§4.3.2).
        deadline = self.env.now + max(
            stage_slo - exec_estimate, SLO_FLOOR_SLACK
        )
        ctx = FnContext(
            instance, deployment.workflow_id, request_id,
            slo_deadline=deadline,
        )
        try:
            # Fetch all inputs in parallel.
            t_get = self.env.now
            gets = [self.plane.get(ctx, ref) for ref in inputs]
            yield self.env.all_of(gets)
            record.get_time = self.env.now - t_get
            record.input_bytes = sum(ref.size for ref in inputs)
            lifecycle.publish_span(
                stage.name, "get", t_get, instance.device_id,
                replica=instance.instance_id,
            )

            # Cold start penalty (container + model load) if not warm.
            if self.prewarm_enabled:
                penalty = self.prewarmer.startup_penalty(
                    instance.instance_id, self.env.now,
                    stage.spec.memory_footprint,
                )
            else:
                penalty = 0.0
            if penalty > 0:
                record.cold_start = penalty
                t_cold = self.env.now
                yield self.env.timeout(penalty)
                lifecycle.publish_span(
                    stage.name, "cold-start", t_cold, instance.device_id,
                    replica=instance.instance_id,
                )

            t_exec = self.env.now
            execution = yield instance.execute_held(
                deployment.batch, record.input_bytes
            )
            record.compute_time = execution.duration
            lifecycle.publish_span(
                stage.name, "exec", t_exec, instance.device_id,
                replica=instance.instance_id,
            )

            # Publish the output for downstream consumers.
            out_edges = workflow.out_edges(stage.name)
            consumers = len(out_edges) if out_edges else 1
            output_size = stage.spec.output_size(
                deployment.batch, record.input_bytes
            )
            record.output_bytes = output_size
            t_put = self.env.now
            ref = yield self.plane.put(
                ctx, output_size, expected_consumers=consumers
            )
            record.put_time = self.env.now - t_put
            lifecycle.publish_span(
                stage.name, "put", t_put, instance.device_id,
                replica=instance.instance_id,
            )
        finally:
            resource.release(slot)
        return ref

    # -- trace replay ------------------------------------------------------------
    def run_trace(
        self,
        deployment: Deployment,
        trace: Trace,
        drain: float = 60.0,
    ) -> list[RequestResult]:
        """Replay *trace* against *deployment* and return its results.

        Only requests that completed within the horizon appear in the
        returned list.
        """
        procs: list[Process] = []

        def driver():
            for arrival in trace:
                if arrival > self.env.now:
                    yield self.env.timeout(arrival - self.env.now)
                procs.append(self.submit(deployment))

        self.env.process(driver())
        horizon = self.env.now + trace.config.duration + drain
        self.env.run(until=horizon)
        return [p.value for p in procs if p.triggered and p.ok]

    def run_trace_streaming(
        self,
        deployment: Deployment,
        trace: Union[Trace, Iterable[float]],
        drain: float = 60.0,
    ) -> int:
        """Replay *trace* without retaining per-request state.

        The bounded-memory counterpart of :meth:`run_trace`: arrivals
        may come from any iterable (typically a generator-backed
        :class:`~repro.traces.ArrivalStream`, so no arrival array is
        materialized), per-request :class:`Process` handles are not
        kept, and completed results reach only :attr:`result_sink`.
        Callers who want the results list anyway can leave
        ``keep_results=True``; the streaming harness sets it False.
        Returns the number of requests submitted; completions are
        available as :attr:`completed_count`.
        """
        submitted = 0
        config = getattr(trace, "config", None)
        duration = config.duration if config is not None else None

        def driver():
            nonlocal submitted
            last_arrival = self.env.now
            for arrival in trace:
                if arrival > self.env.now:
                    yield self.env.timeout(arrival - self.env.now)
                last_arrival = self.env.now
                self.submit(deployment)
                submitted += 1
            if duration is None:
                # No config to bound the horizon: idle out the drain
                # window after the last arrival instead.
                yield self.env.timeout(
                    max(last_arrival + drain - self.env.now, 0.0)
                )

        self.env.process(driver())
        if duration is not None:
            self.env.run(until=self.env.now + duration + drain)
        else:
            self.env.run()
        return submitted

    def run_traces(
        self,
        runs: list[tuple[Deployment, Trace]],
        drain: float = 60.0,
    ) -> dict[str, list[RequestResult]]:
        """Replay several traces concurrently (interference studies)."""
        all_procs: dict[str, list[Process]] = {}

        def driver(deployment, trace):
            start = self.env.now
            procs = all_procs.setdefault(deployment.workflow_id, [])
            for arrival in trace:
                target = start + arrival
                if target > self.env.now:
                    yield self.env.timeout(target - self.env.now)
                procs.append(self.submit(deployment))

        for deployment, trace in runs:
            self.env.process(driver(deployment, trace))
        horizon = self.env.now + max(
            trace.config.duration for _d, trace in runs
        ) + drain
        self.env.run(until=horizon)
        return {
            wf: [p.value for p in procs if p.triggered and p.ok]
            for wf, procs in all_procs.items()
        }


def build_platform(
    preset: str = "dgx-v100",
    num_nodes: int = 1,
    plane_name: str = "grouter",
    placement: str = "mapa",
    plane_kwargs: Optional[dict] = None,
    **platform_kwargs,
) -> ServerlessPlatform:
    """One-call construction of env + cluster + plane + platform."""
    from repro.dataplane import make_plane
    from repro.topology import make_cluster

    env = Environment()
    cluster = make_cluster(preset, num_nodes=num_nodes)
    plane = make_plane(plane_name, env, cluster, **(plane_kwargs or {}))
    return ServerlessPlatform(
        env, cluster, plane, placement=placement, **platform_kwargs
    )
