"""Function instances: deployed containers executing on CPU or GPU.

An instance only models an invocation's compute time; the device slot
it runs in (capacity-1 for GPUs under the paper's temporal-sharing
model, ample host cores for CPU functions) is held by the caller — the
platform takes it before fetching inputs and keeps it through the
output put.  An instance's placement (which physical GPU it occupies)
is the fact GROUTER exploits and the baselines lack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import SchedulingError
from repro.functions.spec import FunctionSpec
from repro.sim.core import Environment, Process
from repro.telemetry.events import ReplicaOutstanding
from repro.topology.devices import Gpu
from repro.topology.node import NodeTopology


@dataclass
class ExecutionRecord:
    """Timing of one completed invocation."""

    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class FunctionInstance:
    """A warm container for one function on one device."""

    _ids = itertools.count()

    def __init__(
        self,
        env: Environment,
        spec: FunctionSpec,
        node: NodeTopology,
        gpu: Optional[Gpu] = None,
        speed_factor: float = 1.0,
        alias: Optional[str] = None,
    ) -> None:
        if spec.is_gpu and gpu is None:
            raise SchedulingError(f"{spec.name}: GPU function needs a gpu")
        if not spec.is_gpu and gpu is not None:
            raise SchedulingError(f"{spec.name}: CPU function placed on a GPU")
        self.env = env
        self.spec = spec
        self.node = node
        self.gpu = gpu
        self.alias = alias if alias is not None else spec.name
        self.instance_id = f"{self.alias}#{next(FunctionInstance._ids)}"
        self.speed_factor = speed_factor
        self.execution_count = 0  # completed invocations
        self.outstanding = 0  # invocations dispatched here, not yet done

    @property
    def device_id(self) -> str:
        """The device this instance runs on (GPU id or node host id)."""
        if self.gpu is not None:
            return self.gpu.device_id
        return self.node.host.device_id

    @property
    def is_gpu(self) -> bool:
        return self.spec.is_gpu

    def execution_latency(self, batch: int, input_bytes: float) -> float:
        return self.spec.execution_latency(batch, input_bytes, self.speed_factor)

    def begin_work(self) -> None:
        """A stage invocation was dispatched to this replica."""
        self.outstanding += 1
        self._publish_outstanding()

    def end_work(self) -> None:
        """The invocation completed (or failed); release its claim."""
        self.outstanding = max(0, self.outstanding - 1)
        self._publish_outstanding()

    def _publish_outstanding(self) -> None:
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(ReplicaOutstanding(
                self.env.now, self.instance_id, self.device_id,
                self.outstanding,
            ))

    def execute_held(self, batch: int = 1, input_bytes: float = 0.0) -> Process:
        """Run an invocation whose device slot the caller already holds.

        The workflow engine acquires the GPU slot *before* fetching
        inputs (a function starts, then loads its data), so execution
        itself must not re-acquire the resource.
        """
        return self.env.process(self._execute_held(batch, input_bytes))

    def _execute_held(self, batch: int, input_bytes: float):
        started = self.env.now
        yield self.env.timeout(self.execution_latency(batch, input_bytes))
        self.execution_count += 1
        return ExecutionRecord(started_at=started, finished_at=self.env.now)

    def __repr__(self) -> str:
        return f"<FunctionInstance {self.instance_id} on {self.device_id}>"


@dataclass
class FnContext:
    """Identity a function presents to the data plane on Put/Get.

    Carries everything access control (§7) and SLO-aware transfer
    scheduling (§4.3.2) need.
    """

    instance: FunctionInstance
    workflow_id: str
    request_id: str
    slo_deadline: Optional[float] = None

    @property
    def function_name(self) -> str:
        # The workflow-level stage name (alias), used for ACL and
        # histogram identity; several stages may share one model spec.
        return self.instance.alias

    @property
    def device_id(self) -> str:
        return self.instance.device_id

    @property
    def gpu(self) -> Optional[Gpu]:
        return self.instance.gpu

    @property
    def node(self) -> NodeTopology:
        return self.instance.node

    @property
    def is_gpu(self) -> bool:
        return self.instance.is_gpu
