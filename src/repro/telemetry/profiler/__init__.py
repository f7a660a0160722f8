"""Causal profiler: span trees, critical paths, contention, blame.

Turns a recorded telemetry stream (or a live bus) into per-request
causal span trees, extracts each request's critical path with exact
blame tiling (categories sum to end-to-end latency), names the flows
that stole bandwidth from each transfer, and aggregates everything
into the ``repro profile`` report.

This subpackage is intentionally *not* re-exported from
``repro.telemetry``: its reporting layer reaches into the experiment
harness, which builds on the platform, which publishes telemetry —
importing it from the package root would create a cycle.  Import it
explicitly::

    from repro.telemetry.profiler import build_profiles, profile_document
"""

from repro.telemetry.profiler.blame import (
    BlameBreakdown,
    breakdown_table,
    critical_path_trace_events,
    profile_document,
)
from repro.telemetry.profiler.contention import (
    ContentionShare,
    FlowContention,
    attribute_contention,
)
from repro.telemetry.profiler.critical_path import (
    CATEGORIES,
    DATA_CATEGORIES,
    SUM_TOLERANCE,
    CriticalPath,
    Segment,
    extract_critical_path,
)
from repro.telemetry.profiler.spans import (
    SPAN_KINDS,
    FlowRecord,
    PoolWait,
    RequestTree,
    Span,
    SpanTreeBuilder,
    TransferSpan,
    build_profiles,
    gantt,
)

__all__ = [
    "BlameBreakdown",
    "CATEGORIES",
    "ContentionShare",
    "CriticalPath",
    "DATA_CATEGORIES",
    "FlowContention",
    "FlowRecord",
    "PoolWait",
    "RequestTree",
    "SPAN_KINDS",
    "SUM_TOLERANCE",
    "Segment",
    "Span",
    "SpanTreeBuilder",
    "TransferSpan",
    "attribute_contention",
    "breakdown_table",
    "build_profiles",
    "critical_path_trace_events",
    "extract_critical_path",
    "gantt",
    "profile_document",
]
