"""Request lifecycle: states, per-stage records, telemetry ownership.

A request moves through an explicit state machine::

    ARRIVED --> (stage spans) --> EGRESS --> FINISHED

Every arrival is admitted, so a request is in the pipeline from the
moment it arrives.  :class:`RequestLifecycle` owns the transitions,
constructs the :class:`RequestResult`, and is the single place
request-level telemetry is published from — the engine drives the
simulation and calls in; it never touches the bus directly.  Illegal
transitions raise immediately, so a refactor that reorders the
pipeline fails loudly instead of producing silently misattributed
results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import SimulationError
from repro.sim.core import Environment
from repro.telemetry.events import RequestArrived, RequestFinished, StageSpan


@dataclass
class StageRecord:
    """Per-stage timing of one request.

    ``egress_time`` is only ever non-zero on exit stages: it holds the
    final drain of that stage's output to host memory, which the seed
    engine used to fold into ``put_time`` (misattributing I/O egress as
    stage data passing).
    """

    stage: str
    get_time: float = 0.0
    compute_time: float = 0.0
    put_time: float = 0.0
    queued_time: float = 0.0
    cold_start: float = 0.0
    input_bytes: float = 0.0
    output_bytes: float = 0.0
    egress_time: float = 0.0


@dataclass
class RequestResult:
    """Outcome of one workflow request."""

    request_id: str
    workflow: str
    arrived_at: float
    finished_at: float
    stage_records: dict[str, StageRecord] = field(default_factory=dict)
    skipped_stages: list[str] = field(default_factory=list)
    slo: Optional[float] = None

    @property
    def latency(self) -> float:
        return self.finished_at - self.arrived_at

    @property
    def compute_time(self) -> float:
        return sum(r.compute_time for r in self.stage_records.values())

    @property
    def egress_time(self) -> float:
        """Time spent draining exit-stage outputs to host memory."""
        return sum(r.egress_time for r in self.stage_records.values())

    @property
    def data_time(self) -> float:
        return sum(
            r.get_time + r.put_time + r.egress_time
            for r in self.stage_records.values()
        )

    @property
    def slo_met(self) -> Optional[bool]:
        if self.slo is None:
            return None
        return self.latency <= self.slo


class RequestState(enum.Enum):
    ARRIVED = "arrived"
    EGRESS = "egress"
    FINISHED = "finished"


_TRANSITIONS: dict[RequestState, tuple[RequestState, ...]] = {
    RequestState.ARRIVED: (RequestState.EGRESS,),
    RequestState.EGRESS: (RequestState.FINISHED,),
    RequestState.FINISHED: (),
}


class RequestLifecycle:
    """One request's walk through the pipeline; owns result + telemetry."""

    def __init__(
        self,
        env: Environment,
        request_id: str,
        workflow: str,
        slo: Optional[float] = None,
    ) -> None:
        self.env = env
        self.request_id = request_id
        self.workflow = workflow
        self.state = RequestState.ARRIVED
        self.result = RequestResult(
            request_id=request_id,
            workflow=workflow,
            arrived_at=env.now,
            finished_at=env.now,
            slo=slo,
        )
        bus = env.telemetry
        if bus is not None:
            bus.publish(RequestArrived(env.now, request_id, workflow))

    # -- state machine -------------------------------------------------------
    def _transition(self, to: RequestState) -> None:
        if to not in _TRANSITIONS[self.state]:
            raise SimulationError(
                f"request {self.request_id}: illegal lifecycle transition "
                f"{self.state.value} -> {to.value}"
            )
        self.state = to

    def begin_egress(self) -> None:
        self._transition(RequestState.EGRESS)

    def finish(self) -> RequestResult:
        self._transition(RequestState.FINISHED)
        result = self.result
        result.finished_at = self.env.now
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(RequestFinished(
                self.env.now, self.request_id, self.workflow, result.latency,
                result.slo_met,
            ))
        return result

    # -- per-stage accounting ------------------------------------------------
    def begin_stage(self, stage: str) -> StageRecord:
        record = StageRecord(stage=stage)
        self.result.stage_records[stage] = record
        return record

    def skip_stage(self, stage: str) -> None:
        self.result.skipped_stages.append(stage)

    def publish_span(
        self,
        stage: str,
        kind: str,
        start: float,
        device_id: str = "",
        replica: str = "",
    ) -> None:
        """Publish one timed span ending now (no-op without a bus)."""
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(StageSpan(
                self.env.now, self.request_id, stage, kind, start,
                self.env.now, device_id, replica,
            ))
