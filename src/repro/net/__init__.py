"""Fluid-flow link network and chunked multi-path transfer engine."""

from repro.net.links import Link, LinkKind
from repro.net.network import (
    Flow,
    FlowNetwork,
    FlowStats,
    MacroOutcome,
)
from repro.net.transfer import (
    DEFAULT_BATCH_CHUNKS,
    DEFAULT_BATCH_SETUP,
    DEFAULT_CHUNK_SIZE,
    TRANSFER_MODES,
    Path,
    TransferEngine,
    TransferResult,
    single_flow_event,
)

__all__ = [
    "Link",
    "LinkKind",
    "Flow",
    "FlowNetwork",
    "FlowStats",
    "MacroOutcome",
    "DEFAULT_BATCH_CHUNKS",
    "DEFAULT_BATCH_SETUP",
    "DEFAULT_CHUNK_SIZE",
    "TRANSFER_MODES",
    "Path",
    "TransferEngine",
    "TransferResult",
    "single_flow_event",
]
