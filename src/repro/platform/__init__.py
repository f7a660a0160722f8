"""Serverless platform: the engine plus its request-path pieces.

``platform`` keeps the engine (deployment, workflow execution, trace
replay); the request path uses two sibling modules — ``queueing``
(pending-request index + per-stage depth counters) and ``lifecycle``
(request state machine + results).  Every arrival is admitted, and a
deployment's replicas serve requests round-robin in arrival order.
"""

from repro.platform.lifecycle import (
    RequestLifecycle,
    RequestResult,
    RequestState,
    StageRecord,
)
from repro.platform.platform import (
    Deployment,
    ServerlessPlatform,
    build_platform,
)
from repro.platform.queueing import PendingQueue, StageQueue

__all__ = [
    "Deployment",
    "PendingQueue",
    "RequestLifecycle",
    "RequestResult",
    "RequestState",
    "ServerlessPlatform",
    "StageQueue",
    "StageRecord",
    "build_platform",
]
