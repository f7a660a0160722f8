"""Fluid-flow bandwidth sharing over directed links.

Transfers are *flows* over link paths.  Whenever the flow population
changes, flow rates are recomputed:

1. **Reservations** — each flow may carry a ``min_rate`` (the paper's
   ``Rate_least`` from §4.3.2), granted in flow-arrival order up to the
   path's remaining capacity (admission-order isolation).
2. **Residual distribution** — the remaining capacity is handed out
   either by *progressive-filling max-min fairness* (how PCIe/NIC
   hardware arbitrates concurrent DMA engines — the baselines' world)
   or by *SLO-gated* allocation (GROUTER's rate control: all idle
   bandwidth goes to the flow with the tightest SLO first).

A multi-hop pipelined transfer is a single flow crossing all its links
simultaneously; its rate is bounded by the bottleneck link share, which
is the standard pipelining approximation.

Allocators
----------
Rates only couple through shared links, so the flow/link graph
decomposes into connected components (links sharing a flow are
connected).  Two allocators exploit this, with identical semantics:

``incremental`` (default)
    When a flow starts, finishes, or is cancelled, a BFS from the
    changed flow (or, after a departure, from its link-sharing
    neighbours) finds the affected component(s), and only their rates
    are recomputed.  Flows outside keep their rates, their progress is
    advanced lazily per flow (``_last_update`` accounting), and their
    completion timers are left untouched.  Within the component, a flow
    whose recomputed rate — or recomputed completion instant — is
    exactly unchanged keeps its pending timer (reschedule elision).
    A flow alone on every link of its path skips the BFS, and its rate
    comes from a closed form that replays the fill's float steps
    (:meth:`FlowNetwork._lone_flow_rate`).
``fullscan``
    Components are re-derived from scratch on every event by a
    union-find sweep over all flows.  The differential-testing
    reference: its rates, event orderings, and finish times must be
    bit-identical to ``incremental``.  It always runs the general
    two-phase fill, so it also checks the one-flow closed form.

Quiescent chunk-batch loops can additionally be coalesced into one
*macro-flow* (:meth:`FlowNetwork.start_macro_flow`) that replays the
per-batch arithmetic virtually and splits back to per-batch flows on
any disturbance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.common.config import NET_ALLOCATORS, net_allocator
from repro.common.errors import SimulationError
from repro.net.links import Link
from repro.sim.core import Environment, Event, ScheduledCall
from repro.telemetry.events import FlowFinished, FlowStarted, FlowsReallocated

_EPS = 1e-9

ALLOCATORS = NET_ALLOCATORS


@dataclass
class FlowStats:
    """Final accounting attached to a completed flow's done-event."""

    flow_id: int
    size: float
    started_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def mean_rate(self) -> float:
        return self.size / self.duration if self.duration > 0 else float("inf")


class Flow:
    """A single in-flight transfer over a fixed link path."""

    __slots__ = (
        "flow_id",
        "path",
        "size",
        "min_rate",
        "rate_cap",
        "slo_deadline",
        "tag",
        "owner",
        "started_at",
        "arrival_order",
        "done",
        "macro_outcome",
        "remaining",
        "rate",
        "_last_update",
        "_timer",
        "_timer_at",
        "_macro",
    )

    _ids = itertools.count()

    def __init__(
        self,
        env: Environment,
        path: Sequence[Link],
        size: float,
        min_rate: float = 0.0,
        rate_cap: float = float("inf"),
        slo_deadline: Optional[float] = None,
        tag: str = "",
        owner: str = "",
    ) -> None:
        if not path:
            raise SimulationError("flow path must contain at least one link")
        if size <= 0:
            raise SimulationError(f"flow size must be positive, got {size}")
        if min_rate < 0:
            raise SimulationError(f"negative min_rate {min_rate}")
        self.flow_id = next(Flow._ids)
        self.path = tuple(path)
        self.size = float(size)
        self.remaining = float(size)
        self.min_rate = min_rate
        self.rate_cap = rate_cap
        self.slo_deadline = slo_deadline
        self.tag = tag
        self.owner = owner
        self.rate = 0.0
        self.started_at = env.now
        # Logical arrival instant used for ordering guarantees
        # (admission-order reservations, SLO tie-breaks).  Equals
        # ``started_at`` for ordinary flows; a macro-flow converted
        # back into its current batch inherits the batch's virtual
        # start so it sorts exactly where the per-batch flow would.
        self.arrival_order = self.started_at
        self.done: Event = env.event()
        # Set by the network on macro-flow resolution; the transfer
        # engine reads it after ``done`` to continue the batch loop.
        self.macro_outcome: Optional["MacroOutcome"] = None
        self._last_update = env.now
        self._timer: Optional[ScheduledCall] = None
        self._timer_at = 0.0
        self._macro: Optional[_MacroState] = None

    def __repr__(self) -> str:
        return (
            f"<Flow {self.flow_id} tag={self.tag!r} "
            f"{self.remaining:.0f}/{self.size:.0f}B rate={self.rate:.2e}>"
        )


def _flow_order(flow: Flow) -> tuple[float, int]:
    """Deterministic allocation order: arrival instant, then id.

    For ordinary flows this is exactly flow_id order (ids are handed
    out monotonically in simulation time); converted macro-flows carry
    their current batch's virtual start so they keep the position the
    equivalent per-batch flow would have had.
    """
    return (flow.arrival_order, flow.flow_id)


@dataclass(slots=True)
class _LinkState:
    link: Link
    # flow_id -> Flow.  Insertion-ordered: flows attach in flow_id
    # order, so iteration is deterministic without sorting.
    flows: dict = field(default_factory=dict)
    bytes_carried: float = 0.0


@dataclass(slots=True)
class MacroOutcome:
    """How a macro-flow resolved; read by the transfer engine.

    ``kind``:

    ``"completed"``
        All coalesced batches drained undisturbed.
    ``"converted"``
        A flow arrival touched the macro's component mid-batch; the
        macro mutated into its current per-batch flow and ``done``
        fired at that batch's boundary.
    ``"setup"``
        The split landed inside a batch-setup window (the per-batch
        world has no flow in flight there); the engine resumes at
        ``resume_at`` and sends ``block`` without repeating the setup
        delay it already spent virtually.
    ``"truncated"``
        Pinned-buffer contention cut the macro at the current batch
        boundary; ``done`` fired there.
    """

    kind: str
    rem_before: float = 0.0  # engine-loop `remaining` entering the boundary batch
    block: float = 0.0  # boundary batch size in bytes
    resume_at: float = 0.0  # kind == "setup": the virtual batch-start instant


@dataclass(slots=True)
class _MacroBatch:
    """One virtual per-batch flow inside a macro-flow's schedule.

    Every float here is produced by replaying the exact arithmetic the
    per-batch path would execute (setup add, allocator rate, ``s +
    b/rate`` completion), so splits and telemetry decomposition are
    bit-identical to the batch-granular world.
    """

    w: float  # setup begins (engine loop reaches the batch)
    s: float  # batch flow starts (w + batch_setup)
    f: float  # batch flow finishes (s + b / rate)
    b: float  # batch size in bytes
    rem_before: float  # engine-loop remaining entering this batch
    rate: float  # allocator rate for the lone batch flow


class _MacroState:
    """Mutable bookkeeping for an in-flight macro-flow."""

    __slots__ = (
        "entries",
        "index",
        "cur_rem",
        "cur_last",
        "pinned_hold",
        "pinned_refund",
        "published",
        "truncate_at",
        "timer",
    )

    def __init__(
        self,
        entries: list[_MacroBatch],
        pinned_hold: float,
        pinned_refund,
    ) -> None:
        self.entries = entries
        # The macro's one analytic-completion timer: armed at the final
        # batch boundary, re-armed at the truncation boundary on pinned
        # contention (elided when that is the instant already armed).
        self.timer: Optional[ScheduledCall] = None
        # Virtual replica of the current per-batch flow's lazy-advance
        # state: batch index, its remaining bytes, last advance instant.
        self.index = 0
        self.cur_rem = entries[0].b
        self.cur_last = entries[0].s
        # Pinned-pool claim held on the engine's behalf, and the
        # callback that returns surplus bytes to the pool on a split.
        self.pinned_hold = pinned_hold
        self.pinned_refund = pinned_refund
        # Virtual batches already emitted to telemetry (prefix length).
        self.published = 0
        # Set when pinned contention truncates the macro at a boundary.
        self.truncate_at: Optional[int] = None


class FlowNetwork:
    """Tracks active flows and shares link bandwidth among them.

    Parameters
    ----------
    env:
        Simulation environment.
    policy:
        ``"maxmin"`` (default, baseline behaviour) or ``"slo_gated"``
        (GROUTER §4.3.2: residual bandwidth goes to the tightest SLO).
    allocator:
        ``"incremental"`` (default, BFS-scoped component refill) or
        ``"fullscan"`` (union-find differential-test reference).  See
        the module docstring.  When ``None``, the
        ``REPRO_NET_ALLOCATOR`` environment variable is consulted, so
        whole experiment runs can be A/B-compared across allocators
        without code changes.
    """

    def __init__(
        self,
        env: Environment,
        policy: str = "maxmin",
        allocator: Optional[str] = None,
    ) -> None:
        # Precedence: kwarg > REPRO_NET_ALLOCATOR > "incremental"
        # (repro.common.config).
        allocator = net_allocator(allocator)
        if policy not in ("maxmin", "slo_gated"):
            raise SimulationError(f"unknown allocation policy {policy!r}")
        self.env = env
        self.policy = policy
        self.allocator = allocator
        # fullscan keeps the general fill for every component.
        self._closed_form = allocator == "incremental"
        self._links: dict[str, _LinkState] = {}
        # flow_id -> Flow; insertion-ordered (ids are monotonic), so
        # iteration is always in flow_id order without sorting.
        self._flows: dict[int, Flow] = {}
        # Live macro-flow count: lets start_flow skip the O(path)
        # macro-split sweep entirely in macro-free workloads.
        self._macro_live = 0
        # Instrumentation (cheap, always on): perfbench/run.py derives
        # its net.* per-layer metrics from these counters, and the
        # allocator differential compares them across allocators.
        self.realloc_count = 0
        self.realloc_flows = 0  # cumulative component sizes
        self.flows_started = 0
        self.timer_reschedules = 0
        self.timer_elisions = 0
        # Constant 0 (no level cache); perfbench/run.py still reads both.
        self.cache_hits = 0
        self.cache_rebuilds = 0
        # Macro-flow coalescing effectiveness.
        self.macro_coalesced = 0
        self.macro_splits = 0

    # -- link registry ----------------------------------------------------
    def add_link(self, link: Link) -> None:
        """Register *link*; idempotent for the same object."""
        existing = self._links.get(link.link_id)
        if existing is not None and existing.link is not link:
            raise SimulationError(f"duplicate link id {link.link_id}")
        if existing is None:
            self._links[link.link_id] = _LinkState(link)

    def link_state(self, link: Link) -> _LinkState:
        state = self._links.get(link.link_id)
        if state is None:
            # Links are registered lazily: a topology can hold thousands
            # of links while only a few ever carry flows.
            self.add_link(link)
            state = self._links[link.link_id]
        return state

    def allocated_on(self, link: Link) -> float:
        """Current total allocated rate on *link*."""
        return sum(flow.rate for flow in self.link_state(link).flows.values())

    def residual_on(self, link: Link) -> float:
        """Unallocated capacity on *link*."""
        return max(0.0, link.capacity - self.allocated_on(link))

    def flow_count_on(self, link: Link) -> int:
        """Number of active flows crossing *link*, without copying.

        O(1): emptiness / count probes (path-is-free checks, harvest
        uplink tests) use this instead of materializing a set per link.
        """
        return len(self.link_state(link).flows)

    def bytes_carried(self, link: Link) -> float:
        """Total bytes carried by *link* so far (includes in-flight)."""
        state = self.link_state(link)
        now = self.env.now
        for flow in state.flows.values():
            self._advance_flow(flow, now)
        return state.bytes_carried

    @property
    def active_flows(self) -> set[Flow]:
        return set(self._flows.values())

    # -- flow lifecycle ----------------------------------------------------
    def start_flow(
        self,
        path: Sequence[Link],
        size: float,
        min_rate: float = 0.0,
        rate_cap: float = float("inf"),
        slo_deadline: Optional[float] = None,
        tag: str = "",
        owner: str = "",
    ) -> Flow:
        """Begin a transfer of *size* bytes over *path*.

        Returns the :class:`Flow`; its ``done`` event fires (with
        :class:`FlowStats`) when the last byte drains.
        """
        flow = Flow(
            self.env,
            path,
            size,
            min_rate=min_rate,
            rate_cap=rate_cap,
            slo_deadline=slo_deadline,
            tag=tag,
            owner=owner,
        )
        for link in flow.path:
            if link.link_id not in self._links:
                self.add_link(link)
        if self._macro_live:
            # A new flow disturbing a macro-flow's component forces the
            # macro back to per-batch granularity *before* this flow is
            # announced, so preemption happens at the batch boundary the
            # paper's §4.3.2 semantics require.
            self._split_macros_on(flow.path)
        self.flows_started += 1
        self._flows[flow.flow_id] = flow
        for link in flow.path:
            self._links[link.link_id].flows[flow.flow_id] = flow
        # Announce the flow before the reallocation below publishes its
        # first rate epoch, so stream consumers (the profiler's span
        # trees) see a complete bandwidth history from birth.
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(FlowStarted(
                t=self.env.now,
                flow_id=flow.flow_id,
                tag=flow.tag,
                size=flow.size,
                links=tuple(link.link_id for link in flow.path),
                src=flow.path[0].src,
                dst=flow.path[-1].dst,
                nominal_bw=min(link.capacity for link in flow.path),
                owner=flow.owner,
                capacities=tuple(link.capacity for link in flow.path),
            ))
        # A new flow can merge previously disjoint components; the
        # component search from the attached flow covers the merge.
        # Progress inside the component is advanced at the old rates
        # before they change; everything outside stays lazy.
        self._reallocate_scoped([flow], "start", flow.flow_id)
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort *flow*; its done-event fails with SimulationError.

        Cancelling a macro-flow aborts the whole coalesced remainder
        (the engine's batch loop dies with the failed done-event).
        """
        if flow.flow_id not in self._flows:
            raise SimulationError(f"cancel of unknown flow {flow.flow_id}")
        if flow._macro is not None:
            macro = flow._macro
            self._advance_flow(flow, self.env.now)
            macro.timer.cancel()
            self._publish_virtual_batches(flow, macro, macro.index)
            if macro.pinned_refund is not None and macro.pinned_hold > 0:
                macro.pinned_refund(macro.pinned_hold)
                macro.pinned_hold = 0.0
            flow._macro = None
            self._macro_resolved(flow)
            self._detach(flow)
            flow.done.fail(SimulationError(f"flow {flow.flow_id} cancelled"))
            return
        self._advance_flow(flow, self.env.now)
        # Removing a flow can split its component; every surviving
        # part contains a link-sharing neighbour of the removed flow,
        # so seeding the scoped pass with the neighbours covers all of
        # them without a separate whole-component search.
        neighbors = self._neighbors(flow)
        self._detach(flow)
        flow.done.fail(SimulationError(f"flow {flow.flow_id} cancelled"))
        self._reallocate_scoped(neighbors, "cancel", flow.flow_id)

    # -- macro-flows (steady-state batch coalescing) ----------------------
    def macro_eligible(self, path: Sequence[Link]) -> bool:
        """Cheap pre-check: can a macro-flow start on *path* right now?

        True only when every path link is idle — the macro would be
        alone in its bandwidth component, which is exactly the regime
        where per-batch granularity does no preemption work.
        """
        for link in path:
            state = self._links.get(link.link_id)
            if state is not None and state.flows:
                return False
        return True

    def start_macro_flow(
        self,
        path: Sequence[Link],
        size: float,
        batch_bytes: float,
        batch_setup: float,
        min_rate: float = 0.0,
        rate_cap: float = float("inf"),
        slo_deadline: Optional[float] = None,
        tag: str = "",
        owner: str = "",
        pinned_hold: float = 0.0,
        pinned_refund=None,
    ) -> Optional[Flow]:
        """Coalesce a whole chunk-batch loop into one analytic flow.

        Precomputes the exact per-batch schedule (setup instants, batch
        rates from the allocator at each virtual start, completion
        times) by replaying the per-batch float arithmetic, then arms a
        single timer at the final boundary.  Returns ``None`` when
        ineligible — path links busy, fewer than two batches, a starved
        or degenerate schedule — and the caller falls back to per-batch
        flows.  Any later disturbance splits the macro at the current
        batch boundary (see :meth:`_split_macro`), preserving the
        paper's §4.3.2 preemption semantics bit-exactly.
        """
        if size <= batch_bytes:
            return None
        for link in path:
            if link.link_id not in self._links:
                self.add_link(link)
        if any(self._links[link.link_id].flows for link in path):
            return None
        flow = Flow(
            self.env,
            path,
            size,
            min_rate=min_rate,
            rate_cap=rate_cap,
            slo_deadline=slo_deadline,
            tag=tag,
            owner=owner,
        )
        links = {link.link_id: self._links[link.link_id] for link in flow.path}
        entries: list[_MacroBatch] = []
        t = self.env.now
        rem = float(size)
        ok = True
        rate: Optional[float] = None
        while rem > 0:
            # float() mirrors Flow.__init__'s coercion in the per-batch
            # world so published event payloads compare bit-identically.
            b = float(min(batch_bytes, rem))
            w = t
            s = (w + batch_setup) if batch_setup > 0 else w
            flow.remaining = b
            if rate is None or self.policy == "slo_gated":
                # Max-min rates for a lone flow read neither *now* nor
                # the flow's remaining bytes, so one allocator call
                # covers every batch bit-exactly; only slo_gated rates
                # are time-varying and must be replayed per batch.
                rate = self._compute_rates([flow], links, now=s)[flow]
            if rate <= _EPS:
                ok = False  # starved; per-batch parks until a change
                break
            eta = b / rate
            f = s + eta
            if not f > s:
                ok = False  # clock cannot advance past this batch
                break
            residual = b - min(b, rate * (f - s))
            if residual > max(1e-6, b * 1e-12):
                ok = False  # per-batch would re-arm mid-batch; stay exact
                break
            entries.append(
                _MacroBatch(w=w, s=s, f=f, b=b, rem_before=rem, rate=rate)
            )
            t = f
            rem = rem - b
        if not ok or len(entries) < 2:
            return None
        flow.remaining = float(size)
        macro = _MacroState(entries, pinned_hold, pinned_refund)
        flow._macro = macro
        self.flows_started += 1
        self.macro_coalesced += 1
        self._flows[flow.flow_id] = flow
        for link in flow.path:
            self._links[link.link_id].flows[flow.flow_id] = flow
        self._macro_live += 1
        macro.timer = self.env.schedule_at(
            entries[-1].f, lambda f_=flow: self._on_macro_timer(f_)
        )
        return flow

    def _split_macros_on(self, path: Sequence[Link]) -> None:
        """Split every macro-flow whose component *path* would touch."""
        macros: dict[int, Flow] = {}
        for link in path:
            state = self._links.get(link.link_id)
            if state is None:
                continue
            for other in state.flows.values():
                if other._macro is not None:
                    macros[other.flow_id] = other
        if not macros:
            return
        now = self.env.now
        for other in sorted(macros.values(), key=_flow_order):
            self._split_macro(other, now)

    def _split_macro(self, flow: Flow, now: float) -> None:
        """Disturbance fallback: return to per-batch granularity.

        Transmit phase — the macro mutates *in place* into its current
        virtual batch's flow (batch size, rate, virtual start as
        arrival order), so the caller's ensuing reallocation treats it
        exactly like the established per-batch flow it replaces; its
        done-event then fires at the batch boundary.  Setup window —
        the per-batch world has no flow in flight between batches, so
        the macro vanishes immediately and the engine resumes the
        batch loop at the next virtual start.  Either way the already-
        elapsed batches are emitted as virtual per-batch telemetry
        first, keeping the event stream decomposed.
        """
        macro = flow._macro
        self.macro_splits += 1
        self._advance_flow(flow, now)
        macro.timer.cancel()
        entry = macro.entries[macro.index]
        self._publish_virtual_batches(flow, macro, macro.index)
        bus = self.env.telemetry
        if now >= entry.s:
            # Become the current per-batch flow F_k.
            if macro.pinned_refund is not None:
                target = min(entry.b, macro.pinned_hold)
                surplus = macro.pinned_hold - target
                if surplus > 0:
                    macro.pinned_refund(surplus)
                    macro.pinned_hold = target
            flow._macro = None
            self._macro_resolved(flow)
            flow.macro_outcome = MacroOutcome(
                kind="converted", rem_before=entry.rem_before, block=entry.b
            )
            flow.size = entry.b
            flow.remaining = macro.cur_rem
            flow.rate = entry.rate
            flow.started_at = entry.s
            flow.arrival_order = entry.s
            flow._last_update = now
            if bus is not None:
                links = tuple(link.link_id for link in flow.path)
                bus.publish(FlowStarted(
                    t=entry.s,
                    flow_id=flow.flow_id,
                    tag=flow.tag,
                    size=flow.size,
                    links=links,
                    src=flow.path[0].src,
                    dst=flow.path[-1].dst,
                    nominal_bw=min(link.capacity for link in flow.path),
                    owner=flow.owner,
                    capacities=tuple(link.capacity for link in flow.path),
                ))
                bus.publish(FlowsReallocated(
                    t=entry.s,
                    trigger="start",
                    flow_id=flow.flow_id,
                    component=(flow.flow_id,),
                    links=links,
                    rescheduled=(flow.flow_id,),
                    rates=(entry.rate,),
                ))
        else:
            # Setup window: refund the whole pinned claim and hand the
            # loop back to the engine at the virtual batch start.
            if macro.pinned_refund is not None and macro.pinned_hold > 0:
                macro.pinned_refund(macro.pinned_hold)
                macro.pinned_hold = 0.0
            flow.macro_outcome = MacroOutcome(
                kind="setup",
                rem_before=entry.rem_before,
                block=entry.b,
                resume_at=entry.s,
            )
            flow._macro = None
            self._macro_resolved(flow)
            self._detach(flow)
            flow.done.succeed(None)

    def _macro_resolved(self, flow: Flow) -> None:
        """Bookkeeping when a flow stops being a macro-flow."""
        self._macro_live -= 1

    def split_macro_for_pinned(self, flow: Flow) -> None:
        """Pinned-pool contention: cut the macro at its batch boundary.

        Called synchronously from ``Container.on_blocked`` when a get
        on the macro's pinned pool would block.  Mid-batch the macro is
        truncated to finish at the current boundary — the surplus claim
        above the in-flight batch's own hold is refunded immediately,
        matching what the eager per-batch world would be holding right
        now.  In a setup window the whole claim is refunded and the
        engine resumes per-batch at once.
        """
        macro = flow._macro
        if macro is None or macro.truncate_at is not None:
            return
        now = self.env.now
        # Seek only: the eager world would not advance any flow here (a
        # container get is not a network event), so a partial advance
        # would split one batch's byte credit into two float adds.
        self._advance_macro(flow, now, partial=False)
        entry = macro.entries[macro.index]
        self.macro_splits += 1
        if now >= entry.s:
            macro.truncate_at = macro.index
            if macro.pinned_refund is not None:
                target = min(entry.b, macro.pinned_hold)
                surplus = macro.pinned_hold - target
                if surplus > 0:
                    macro.pinned_refund(surplus)
                    macro.pinned_hold = target
            if macro.timer.when != entry.f:
                macro.timer.cancel()
                macro.timer = self.env.schedule_at(
                    entry.f, lambda f_=flow: self._on_macro_timer(f_)
                )
        else:
            self._publish_virtual_batches(flow, macro, macro.index)
            if macro.pinned_refund is not None and macro.pinned_hold > 0:
                macro.pinned_refund(macro.pinned_hold)
                macro.pinned_hold = 0.0
            flow.macro_outcome = MacroOutcome(
                kind="setup",
                rem_before=entry.rem_before,
                block=entry.b,
                resume_at=entry.s,
            )
            flow._macro = None
            self._macro_resolved(flow)
            self._detach(flow)
            flow.done.succeed(None)

    def _on_macro_timer(self, flow: Flow) -> None:
        """Analytic completion (or truncation boundary) of a macro."""
        if flow.done.triggered or flow.flow_id not in self._flows:
            return
        macro = flow._macro
        macro.timer = None
        now = self.env.now
        self._advance_flow(flow, now)
        if macro.truncate_at is not None:
            entry = macro.entries[macro.truncate_at]
            upto = macro.truncate_at + 1
            flow.macro_outcome = MacroOutcome(
                kind="truncated", rem_before=entry.rem_before, block=entry.b
            )
        else:
            upto = len(macro.entries)
            flow.macro_outcome = MacroOutcome(kind="completed")
        self._publish_virtual_batches(flow, macro, upto)
        flow._macro = None
        self._macro_resolved(flow)
        flow.remaining = 0.0
        self._detach(flow)
        flow.done.succeed(self._stats(flow))
        # No reallocation and no live FlowFinished: the macro was alone
        # in its component by construction (a lone per-batch finish
        # publishes no epoch either), and its telemetry was emitted as
        # the virtual per-batch decomposition above.

    def _publish_virtual_batches(
        self, flow: Flow, macro: _MacroState, upto: int
    ) -> None:
        """Emit the per-batch-equivalent event stream for batches < *upto*.

        Each virtual batch gets a fresh flow id and the exact
        FlowStarted / single-flow FlowsReallocated / FlowFinished
        triple the per-batch world would have published, at the
        virtual timestamps.  Ids differ from a real per-batch run
        (they are allocated lazily); consumers key on ids, not their
        values, so span trees and blame tiling stay exact.
        """
        if macro.published >= upto:
            return
        bus = self.env.telemetry
        if bus is None:
            macro.published = upto
            return
        links = tuple(link.link_id for link in flow.path)
        src = flow.path[0].src
        dst = flow.path[-1].dst
        nominal = min(link.capacity for link in flow.path)
        caps = tuple(link.capacity for link in flow.path)
        for j in range(macro.published, upto):
            entry = macro.entries[j]
            vid = next(Flow._ids)
            bus.publish(FlowStarted(
                t=entry.s,
                flow_id=vid,
                tag=flow.tag,
                size=entry.b,
                links=links,
                src=src,
                dst=dst,
                nominal_bw=nominal,
                owner=flow.owner,
                capacities=caps,
            ))
            bus.publish(FlowsReallocated(
                t=entry.s,
                trigger="start",
                flow_id=vid,
                component=(vid,),
                links=links,
                rescheduled=(vid,),
                rates=(entry.rate,),
            ))
            bus.publish(FlowFinished(
                t=entry.f,
                flow_id=vid,
                tag=flow.tag,
                size=entry.b,
                links=links,
                src=src,
                dst=dst,
                started_at=entry.s,
                owner=flow.owner,
            ))
        macro.published = upto

    # -- progress accounting ----------------------------------------------
    def _advance_flow(self, flow: Flow, now: float) -> None:
        """Drain bytes for *flow* since its last update."""
        if flow._macro is not None:
            self._advance_macro(flow, now)
            return
        elapsed = now - flow._last_update
        if elapsed > 0 and flow.rate > 0:
            moved = min(flow.remaining, flow.rate * elapsed)
            flow.remaining -= moved
            for link in flow.path:
                self._links[link.link_id].bytes_carried += moved
        flow._last_update = now

    def _advance_macro(self, flow: Flow, now: float, partial: bool = True) -> None:
        """Replay the per-batch lazy-advance arithmetic virtually.

        Walks the macro's virtual batches up to *now* using the same
        float operations, in the same order, that the equivalent
        per-batch flows would execute for the same advance instants —
        so ``bytes_carried`` stays bit-identical between modes even
        under mid-flight queries.  Batch residuals vanish at batch
        boundaries exactly like the per-batch drift guard drops them.

        With ``partial=False`` the in-flight batch is *not* advanced to
        *now* — only wholly completed batches are settled.  Used where
        the per-batch world would not have advanced the flow at *now*
        at all (e.g. pinned-pool contention: a container ``get`` is not
        a network event), since splitting one batch's credit into two
        adds would perturb the float accumulation by an ulp.
        """
        macro = flow._macro
        entries = macro.entries
        last = len(entries) - 1
        while True:
            entry = entries[macro.index]
            if now < entry.s:
                break  # setup window: no virtual flow in flight
            if now < entry.f and not partial:
                break  # seek mode: leave the in-flight batch untouched
            t_end = now if now < entry.f else entry.f
            elapsed = t_end - macro.cur_last
            if elapsed > 0 and entry.rate > 0:
                moved = min(macro.cur_rem, entry.rate * elapsed)
                macro.cur_rem -= moved
                for link in flow.path:
                    self._links[link.link_id].bytes_carried += moved
            macro.cur_last = t_end
            if now < entry.f or macro.index == last:
                break
            macro.index += 1
            nxt = entries[macro.index]
            macro.cur_rem = nxt.b
            macro.cur_last = nxt.s
        entry = entries[macro.index]
        # Introspection mirrors the per-batch world: during a setup
        # window no flow is transmitting, so the observable rate is 0.
        flow.remaining = (entry.rem_before - entry.b) + macro.cur_rem
        flow.rate = entry.rate if now >= entry.s else 0.0
        flow._last_update = now

    def _advance_component(self, flows: Sequence[Flow]) -> None:
        now = self.env.now
        for flow in flows:
            self._advance_flow(flow, now)

    # -- component discovery ------------------------------------------------
    def _component_with(self, flow: Flow) -> tuple[list[Flow], dict[str, _LinkState]]:
        """The connected component containing *flow* (which is attached).

        Flows are returned sorted by flow_id; links are every link any
        member crosses (capacity constraints), keyed by link_id.
        """
        if self.allocator == "fullscan":
            for flows, links in self._partition_all():
                if any(f.flow_id == flow.flow_id for f in flows):
                    return flows, links
            raise SimulationError(
                f"flow {flow.flow_id} missing from component scan"
            )
        links: dict[str, _LinkState] = {}
        for link in flow.path:
            state = self._links[link.link_id]
            if len(state.flows) != 1:
                break
            links[link.link_id] = state
        else:
            # Alone on every path link: the BFS below would find just
            # *flow* and these links, in this order.
            return [flow], links
        members: dict[int, Flow] = {flow.flow_id: flow}
        links = {}
        stack = [flow]
        while stack:
            current = stack.pop()
            for link in current.path:
                lid = link.link_id
                if lid in links:
                    continue
                state = self._links[lid]
                links[lid] = state
                for other in state.flows.values():
                    if other.flow_id not in members:
                        members[other.flow_id] = other
                        stack.append(other)
        component = sorted(members.values(), key=_flow_order)
        return component, links

    def _neighbors(self, flow: Flow) -> list[Flow]:
        """Flows sharing a link with *flow*, in arrival order."""
        members: dict[int, Flow] = {}
        for link in flow.path:
            for other in self._links[link.link_id].flows.values():
                if other.flow_id != flow.flow_id:
                    members[other.flow_id] = other
        return sorted(members.values(), key=_flow_order)

    def _partition_all(self) -> list[tuple[list[Flow], dict[str, _LinkState]]]:
        """All components, re-derived from scratch (fullscan reference)."""
        parent: dict[int, int] = {fid: fid for fid in self._flows}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        owner: dict[str, int] = {}
        for fid, flow in self._flows.items():
            for link in flow.path:
                other = owner.setdefault(link.link_id, fid)
                ra, rb = find(fid), find(other)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        groups: dict[int, tuple[list[Flow], dict[str, _LinkState]]] = {}
        for fid, flow in self._flows.items():
            flows, links = groups.setdefault(find(fid), ([], {}))
            flows.append(flow)
            for link in flow.path:
                links.setdefault(link.link_id, self._links[link.link_id])
        for flows, _links_ in groups.values():
            flows.sort(key=_flow_order)
        return [groups[root] for root in sorted(groups)]

    # -- reallocation -----------------------------------------------------
    def _reallocate_scoped(
        self, flows: Sequence[Flow], trigger: str, changed_id: int
    ) -> None:
        """Recompute rates for every component touching *flows*.

        *flows* seed the affected region (flow_id-sorted); after a
        departure they may span several newly split components, each
        advanced at its old rates and then recomputed independently.
        """
        seen: set[int] = set()
        for flow in flows:
            if flow.flow_id in seen:
                continue
            component, links = self._component_with(flow)
            seen.update(f.flow_id for f in component)
            self._advance_component(component)
            self._recompute_component(component, links, trigger, changed_id)

    def _recompute_component(
        self,
        component: list[Flow],
        links: dict[str, _LinkState],
        trigger: str,
        changed_id: int,
    ) -> None:
        self.realloc_count += 1
        self.realloc_flows += len(component)
        rates = self._compute_rates(component, links)
        rescheduled: list[int] = []
        for flow in component:
            new_rate = rates[flow]
            if (
                new_rate == flow.rate
                and flow.remaining > _EPS
                and (flow._timer is not None or new_rate <= _EPS)
            ):
                # Exactly unchanged: the pending completion timer (or
                # starved no-timer state) is still correct as-is.
                self.timer_elisions += 1
                continue
            if (
                flow._timer is not None
                and flow.remaining > _EPS
                and new_rate > _EPS
                and self.env.now + flow.remaining / new_rate == flow._timer_at
            ):
                # Completion-time elision: the rate moved, but the
                # recomputed completion instant lands bit-for-bit on the
                # armed timer (e.g. simultaneous departures perturb and
                # restore a symmetric share).  Keep the timer; only the
                # rate needs updating for progress accounting.
                flow.rate = new_rate
                self.timer_elisions += 1
                continue
            flow.rate = new_rate
            self._schedule_completion(flow)
            rescheduled.append(flow.flow_id)
        self.timer_reschedules += len(rescheduled)
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(FlowsReallocated(
                t=self.env.now,
                trigger=trigger,
                flow_id=changed_id,
                component=tuple(f.flow_id for f in component),
                links=tuple(links),
                rescheduled=tuple(rescheduled),
                rates=tuple(f.rate for f in component),
            ))


    # -- internals -----------------------------------------------------------
    def _detach(self, flow: Flow) -> None:
        self._flows.pop(flow.flow_id, None)
        for link in flow.path:
            self._links[link.link_id].flows.pop(flow.flow_id, None)
        if flow._timer is not None:
            flow._timer.cancel()
            flow._timer = None
        flow.rate = 0.0

    def _schedule_completion(self, flow: Flow) -> None:
        if flow._macro is not None:
            return  # macro timers are armed analytically at creation
        if flow._timer is not None:
            flow._timer.cancel()
            flow._timer = None
        if flow.remaining <= _EPS:
            flow._timer = self.env.schedule(
                0.0, lambda f=flow: self._on_timer(f)
            )
            flow._timer_at = self.env.now
            return
        if flow.rate <= _EPS:
            return  # starved; rescheduled on the next rate change
        eta = flow.remaining / flow.rate
        flow._timer = self.env.schedule(eta, lambda f=flow: self._on_timer(f))
        flow._timer_at = self.env.now + eta

    def _on_timer(self, flow: Flow) -> None:
        flow._timer = None
        if flow.done.triggered or flow.flow_id not in self._flows:
            return
        now = self.env.now
        self._advance_flow(flow, now)
        # Float-drift guard: a microbyte of residual is "done"; likewise
        # finish when the residual is too small for the clock to advance
        # (now + eta == now), or the timer would loop at one timestamp.
        threshold = max(1e-6, flow.size * 1e-12)
        if flow.remaining > threshold:
            eta = (
                flow.remaining / flow.rate if flow.rate > _EPS else float("inf")
            )
            if eta != float("inf") and now + eta > now:
                flow._timer = self.env.schedule(
                    eta, lambda f=flow: self._on_timer(f)
                )
                flow._timer_at = now + eta
                return
            if eta == float("inf"):
                return  # starved; rescheduled on the next rate change
        # A departure can split its component; the scoped pass seeded
        # with the neighbours re-derives the exact parts by BFS.
        neighbors = self._neighbors(flow)
        flow.remaining = 0.0
        self._detach(flow)
        flow.done.succeed(self._stats(flow))
        self._reallocate_scoped(neighbors, "finish", flow.flow_id)
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(FlowFinished(
                t=self.env.now,
                flow_id=flow.flow_id,
                tag=flow.tag,
                size=flow.size,
                links=tuple(link.link_id for link in flow.path),
                src=flow.path[0].src,
                dst=flow.path[-1].dst,
                started_at=flow.started_at,
                owner=flow.owner,
            ))

    def _stats(self, flow: Flow) -> FlowStats:
        return FlowStats(
            flow_id=flow.flow_id,
            size=flow.size,
            started_at=flow.started_at,
            finished_at=self.env.now,
        )

    # -- rate computation -------------------------------------------------
    def _compute_rates(
        self,
        flows: list[Flow],
        links: dict[str, _LinkState],
        now: Optional[float] = None,
    ) -> dict[Flow, float]:
        """Rates for *flows* (arrival-ordered) over *links*.

        *links* restricts the residual bookkeeping to the links the
        component actually crosses.  *now* overrides the SLO-slack
        reference instant — macro-flow schedule replay asks for rates
        at virtual future batch starts.  Under ``incremental`` a lone
        flow that crosses no link twice takes the closed form.
        """
        if not flows:
            return {}
        if (
            self._closed_form
            and len(flows) == 1
            and len(links) == len(flows[0].path)
        ):
            flow = flows[0]
            return {flow: self._lone_flow_rate(flow, now)}
        rates: dict[Flow, float] = {}
        residual: dict[str, float] = {
            lid: state.link.capacity for lid, state in links.items()
        }

        # Phase 1: reservations are granted in flow-arrival order, each
        # up to the path's remaining capacity.  Admission-order
        # guarantees give performance isolation (§4.3.2): a later flood
        # of reserving flows cannot dilute an earlier flow's Rate_least.
        for flow in flows:
            if flow.min_rate <= 0:
                rates[flow] = 0.0
                continue
            headroom = min(residual[link.link_id] for link in flow.path)
            granted = max(0.0, min(flow.min_rate, flow.rate_cap, headroom))
            rates[flow] = granted
            for link in flow.path:
                residual[link.link_id] -= granted

        # Phase 2: distribute the residual.
        if self.policy == "slo_gated":
            self._fill_slo_gated(flows, rates, residual, now)
        else:
            self._fill_maxmin(flows, rates, residual)
        return rates

    # SLO-gated flows are topped up to finish within this fraction of
    # their remaining slack — comfortably early, but without hoarding.
    _SLO_SLACK_TARGET = 0.5

    def _lone_flow_rate(self, flow: Flow, now: Optional[float] = None) -> float:
        """The general fill's rate for a one-flow component, bit for bit.

        Every link of the path carries only *flow*, once, so each loses
        the same amounts in the same order.  Float subtraction is
        monotone, so ``head`` — the bottleneck capacity minus those
        amounts — is exactly the fill's ``min(residual)`` at each step.
        The steps are the fill's: the phase-1 grant, the slo_gated
        top-up (skipped on a saturated link), and the single max-min
        pass after which a lone flow freezes.
        """
        head = min(link.capacity for link in flow.path)
        rate = 0.0
        if flow.min_rate > 0:
            rate = max(0.0, min(flow.min_rate, flow.rate_cap, head))
            head -= rate
        deadline = flow.slo_deadline
        if self.policy == "slo_gated" and deadline is not None:
            if now is None:
                now = self.env.now
            if deadline > now and head > _EPS:
                slack = (deadline - now) * self._SLO_SLACK_TARGET
                target_rate = flow.remaining / max(slack, _EPS)
                want = min(target_rate, flow.rate_cap) - rate
                if want > _EPS:
                    grant = min(want, head)
                    rate += grant
                    head -= grant
        if rate < flow.rate_cap - _EPS:
            delta = head
            cap_head = flow.rate_cap - rate
            if cap_head < delta:
                delta = cap_head
            if delta > _EPS:
                rate += delta
        return rate

    def _fill_slo_gated(
        self,
        flows: list[Flow],
        rates: dict[Flow, float],
        residual: dict[str, float],
        now: Optional[float] = None,
    ) -> None:
        """Idle bandwidth to the tightest SLO first (§4.3.2).

        Two passes.  First, flows with a *future* deadline are topped
        up — tightest deadline first — to the rate that finishes them
        within half their remaining slack; expired deadlines are lost
        causes and drop to best effort (otherwise a backlog of missed
        transfers starves every still-meetable SLO).  Second, whatever
        capacity remains is shared max-min among all flows, so nothing
        is left idle and best-effort traffic never fully starves.
        """
        if now is None:
            now = self.env.now
        pending = [
            flow
            for flow in flows
            if flow.slo_deadline is not None and flow.slo_deadline > now
        ]
        pending.sort(key=lambda f: (f.slo_deadline, f.arrival_order, f.flow_id))
        # Saturated-link short-circuit: a flow whose path crosses a
        # zero-residual link can only be granted <= _EPS (its headroom
        # min is bounded by that link), which the grant check below
        # would discard anyway — skip the O(path) headroom scan.  The
        # set is maintained as grants consume residuals.
        saturated = (
            {lid for lid, res in residual.items() if res <= _EPS}
            if pending
            else set()
        )
        for flow in pending:
            slack = (flow.slo_deadline - now) * self._SLO_SLACK_TARGET
            target_rate = flow.remaining / max(slack, _EPS)
            want = min(target_rate, flow.rate_cap) - rates[flow]
            if want <= _EPS:
                continue
            if any(link.link_id in saturated for link in flow.path):
                continue
            headroom = min(residual[link.link_id] for link in flow.path)
            grant = min(want, headroom)
            if grant <= _EPS:
                continue
            rates[flow] += grant
            for link in flow.path:
                lid = link.link_id
                residual[lid] -= grant
                if residual[lid] <= _EPS:
                    saturated.add(lid)
        # Work conservation: leftovers shared max-min among everyone.
        self._fill_maxmin(flows, rates, residual)

    def _fill_maxmin(
        self,
        flows: list[Flow],
        rates: dict[Flow, float],
        residual: dict[str, float],
    ) -> None:
        """Progressive-filling max-min fairness over the residual.

        The crossing counts are maintained decrementally (a freezing
        flow decrements its links) instead of rebuilt every pass, the
        cap-minimisation loop is skipped entirely when no flow carries
        a finite ``rate_cap``, and the unfrozen list is compacted in
        place — all bit-exact (``min`` over the same multiset, same
        add/subtract order), turning the per-pass cost from
        O(flows × path) into O(survivors + frozen × path).
        """
        unfrozen = [
            flow for flow in flows if rates[flow] < flow.rate_cap - _EPS
        ]
        any_cap = any(f.rate_cap != float("inf") for f in unfrozen)
        crossing: dict[str, int] = {}
        for flow in unfrozen:
            for link in flow.path:
                lid = link.link_id
                crossing[lid] = crossing.get(lid, 0) + 1
        # Iteration bound: each pass freezes at least one flow.
        for _ in range(len(flows) + 1):
            if not unfrozen:
                break
            delta = min(
                residual[link_id] / count for link_id, count in crossing.items()
            )
            if any_cap:
                for flow in unfrozen:
                    head = flow.rate_cap - rates[flow]
                    if head < delta:
                        delta = head
            if delta > _EPS:
                for flow in unfrozen:
                    rates[flow] += delta
                    for link in flow.path:
                        residual[link.link_id] -= delta
            # Freeze flows pinned by a saturated link or their own cap;
            # survivors are compacted in place, preserving order.
            write = 0
            frozen_any = False
            for flow in unfrozen:
                at_cap = rates[flow] >= flow.rate_cap - _EPS
                saturated = any(
                    residual[link.link_id] <= _EPS for link in flow.path
                )
                if at_cap or saturated:
                    frozen_any = True
                    for link in flow.path:
                        lid = link.link_id
                        count = crossing[lid] - 1
                        if count:
                            crossing[lid] = count
                        else:
                            del crossing[lid]
                else:
                    unfrozen[write] = flow
                    write += 1
            if not frozen_any:
                break
            del unfrozen[write:]
