"""Critical-path extraction over a request's span tree.

Walks one :class:`~repro.telemetry.profiler.spans.RequestTree` backward
from its finish time, following — at every stage — the predecessor that
actually gated it (the platform joins on *all* predecessors, so the
gating one is the last to produce its output).  The result is a single
causal chain of :class:`Segment` regions that tiles ``[arrived,
finished]`` with **no gaps and no overlaps**, which is what makes the
blame decomposition exact: the per-category durations sum to the
request's end-to-end latency by construction, not approximately.

Blame categories
----------------
``admission``   arrival to the entry stage's first span (dispatch,
                pending-queue entry, ingress registration)
``queue``       waiting for a device slot (published queue spans)
``stage-wait``  gap between the gating predecessor finishing and this
                stage's first span (all-of join + dispatch delay)
``cold-start``  container + model load penalty
``compute``     function execution
``data-get``    input materialization (Get)
``data-put``    output storage (Put)
``egress``      final drain of exit-stage outputs to the host
``other``       intra-stage slack not covered by a published span
                (control-plane floors, lookup latencies)

``data-get`` + ``data-put`` + ``egress`` together are the paper's
"data passing" share (Fig. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.telemetry.profiler.spans import RequestTree, Span

CATEGORIES = (
    "admission",
    "queue",
    "stage-wait",
    "cold-start",
    "compute",
    "data-get",
    "data-put",
    "egress",
    "other",
)

DATA_CATEGORIES = ("data-get", "data-put", "egress")

_KIND_TO_CATEGORY = {
    "queue": "queue",
    "get": "data-get",
    "cold-start": "cold-start",
    "exec": "compute",
    "put": "data-put",
    "egress": "egress",
}

# Exact-tiling tolerance: segment boundaries come from identical
# ``env.now`` reads so they should match bit-for-bit; the blame sum
# accumulates one float add per segment, hence the epsilon.
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Segment:
    """One region of the critical path."""

    start: float
    end: float
    category: str
    stage: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The longest causal chain of one request, tiled into segments."""

    request_id: str
    segments: list[Segment] = field(default_factory=list)

    @property
    def blame(self) -> dict[str, float]:
        """Per-category time; keys restricted to non-zero categories."""
        out: dict[str, float] = {}
        for category in CATEGORIES:
            total = math.fsum(
                s.duration for s in self.segments if s.category == category
            )
            if total > 0:
                out[category] = total
        return out

    @property
    def total(self) -> float:
        return math.fsum(s.duration for s in self.segments)

    @property
    def data_passing_time(self) -> float:
        return math.fsum(
            s.duration
            for s in self.segments
            if s.category in DATA_CATEGORIES
        )

    def verify(self, latency: float) -> bool:
        """True iff the segments tile exactly and sum to *latency*."""
        if not self.segments:
            return latency == 0.0
        for before, after in zip(self.segments, self.segments[1:]):
            if before.end != after.start:
                return False
        span = self.segments[-1].end - self.segments[0].start
        if abs(span - latency) > SUM_TOLERANCE:
            return False
        return abs(self.total - latency) <= SUM_TOLERANCE


def extract_critical_path(
    tree: RequestTree, workflow=None
) -> Optional[CriticalPath]:
    """The critical path of a completed request (None if unfinished).

    *workflow* is the :class:`~repro.workflow.dag.Workflow` the request
    executed, used to follow real DAG edges; without it the walk falls
    back to timing inference (the stage whose span block finishes
    closest before the cursor is assumed to gate it), which is exact
    for chains and still tiles correctly for general DAGs.
    """
    if not tree.complete:
        return None
    finished = tree.finished
    arrived = tree.arrived
    segments_rev: list[Segment] = []

    blocks = {
        stage: _sorted_block(spans)
        for stage, spans in tree.stage_spans.items()
        if spans
    }
    done_memo: dict[str, float] = {}

    def block_done(stage: str) -> float:
        """When *stage*'s output became available."""
        memo = done_memo.get(stage)
        if memo is not None:
            return memo
        if stage in blocks:
            value = blocks[stage][-1].end
        elif workflow is not None and _known_stage(workflow, stage):
            # Skipped (conditional branch): ready when its inputs were.
            preds = workflow.predecessors(stage)
            value = max((block_done(p) for p in preds), default=arrived)
        else:
            value = arrived
        done_memo[stage] = value
        return value

    # -- egress tail: tile [last put/egress begin, finished] ----------------
    cursor = finished
    for span in sorted(
        tree.egress_spans, key=lambda s: (s.start, s.end), reverse=True
    ):
        cursor = _emit_span(segments_rev, span, cursor)

    # -- choose the exit stage that gated the egress ------------------------
    stage = _gating_exit(tree, blocks, block_done, workflow)
    visited: set[str] = set()
    while stage is not None and stage in blocks and stage not in visited:
        visited.add(stage)
        block = blocks[stage]
        block_end = block[-1].end
        if block_end < cursor:
            segments_rev.append(
                Segment(block_end, cursor, "stage-wait", stage)
            )
            cursor = block_end
        for span in reversed(block):
            cursor = _emit_span(segments_rev, span, cursor)
        stage = _gating_predecessor(
            stage, blocks, block_done, workflow, visited, cursor
        )

    if cursor > arrived:
        segments_rev.append(Segment(arrived, cursor, "admission", ""))

    path = CriticalPath(
        request_id=tree.request_id, segments=list(reversed(segments_rev))
    )
    return path


# -- helpers -------------------------------------------------------------------
def _sorted_block(spans: list[Span]) -> list[Span]:
    return sorted(spans, key=lambda s: (s.start, s.end))


def _known_stage(workflow, stage: str) -> bool:
    try:
        workflow.predecessors(stage)
        return True
    except Exception:
        return False


def _emit_span(
    segments_rev: list[Segment], span: Span, cursor: float
) -> float:
    """Append *span* (clamped to end at *cursor*) walking backward."""
    s_end = min(span.end, cursor)
    s_start = min(span.start, s_end)
    if s_end < cursor:
        # Un-spanned slack inside the block: control-plane floors etc.
        segments_rev.append(Segment(s_end, cursor, "other", span.stage))
    if s_start < s_end:
        category = _KIND_TO_CATEGORY.get(span.kind, "other")
        segments_rev.append(
            Segment(s_start, s_end, category, span.stage)
        )
    return s_start


def _gating_exit(tree, blocks, block_done, workflow) -> Optional[str]:
    """The exit stage whose output gated egress (last to finish)."""
    if workflow is not None:
        candidates = [s.name for s in workflow.exit_stages]
        # Resolve skipped exits down to their executed ancestors.
        resolved = [
            _resolve_executed(name, blocks, workflow)
            for name in candidates
        ]
        executed = [name for name in resolved if name in blocks]
        if executed:
            return max(executed, key=block_done)
    if tree.egress_spans:
        names = {s.stage for s in tree.egress_spans if s.stage in blocks}
        if names:
            return max(names, key=block_done)
    if blocks:
        return max(blocks, key=block_done)
    return None


def _resolve_executed(stage, blocks, workflow) -> Optional[str]:
    """Walk a skipped stage up to the executed ancestor gating it."""
    seen = set()
    while stage is not None and stage not in blocks:
        if stage in seen or not _known_stage(workflow, stage):
            return None
        seen.add(stage)
        preds = workflow.predecessors(stage)
        executed = [p for p in preds if p in blocks]
        if executed:
            # The last-finishing executed predecessor gated it.
            return max(
                executed, key=lambda p: blocks[p][-1].end
            )
        if not preds:
            return None
        stage = preds[0]
    return stage


def _gating_predecessor(
    stage, blocks, block_done, workflow, visited, cursor
) -> Optional[str]:
    """The predecessor that gated *stage* (walk target), or None."""
    if workflow is not None and _known_stage(workflow, stage):
        preds = workflow.predecessors(stage)
        if not preds:
            return None
        resolved = [
            _resolve_executed(p, blocks, workflow) for p in preds
        ]
        executed = [
            p for p in resolved if p is not None and p not in visited
        ]
        if not executed:
            return None
        return max(executed, key=block_done)
    # Timing fallback: the unvisited block finishing last at/before the
    # cursor is assumed to be the gating producer.
    candidates = [
        name
        for name, block in blocks.items()
        if name not in visited and block[-1].end <= cursor + SUM_TOLERANCE
    ]
    if not candidates:
        return None
    return max(candidates, key=block_done)
