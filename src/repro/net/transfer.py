"""Chunked, batched, multi-path transfer engine (paper §4.3.1-§4.3.2).

GROUTER splits data into small chunks (2 MB by default), groups chunks
into batches (5 per batch by default), and pipelines batches over one or
more link paths.  Batches are the preemption granularity: a new function
can inject its chunks at the next batch boundary, which is exactly how
the fluid model behaves because every batch is a separate flow and rates
are recomputed on each flow arrival.

Multi-path transfers split the payload proportionally to each path's
nominal bandwidth (dynamic chunk sizing, §4.3.3) so all paths finish
together.

Callbacks, not processes
------------------------
The engine runs no generator.  Each :meth:`TransferEngine.transfer`
call is a ``_Transfer`` that splits the payload and joins its paths,
and each path is a ``_PathCursor`` that walks the batch loop.  The
exactness rule: every step is a callback on the heap entry that a
process per transfer and per path would wait on, armed at the point
where that process would suspend.

* Starting the transfer, and starting each of its paths, is one
  ``env.schedule(0.0, ...)`` each.
* The pipeline-fill and batch-setup delays are ``env.schedule(delay,
  ...)``; resuming a split macro-flow at its virtual batch start is
  ``env.schedule_at(...)``.
* A pinned-ring grant and each flow's (or macro-flow's) ``done``
  event get the continuation appended to their callbacks.
* A path's end, the join of the paths and the transfer's ``done``
  event are one zero-delay entry each.

So the heap receives the same entries in the same ``(time, seq)``
order, every step does the same work, and no simulated result depends
on how the engine is written.  Folding a continuation into the step
that triggers it (arming the next batch's setup timer from the flow's
completion, say) posts its entries at other sequence numbers and so
reorders same-instant ties; exactness would then rest on every such
tie being harmless.

Steady-state coalescing (``coalesced`` mode, the default)
---------------------------------------------------------
The batch granularity exists so new functions can preempt bandwidth at
batch boundaries — but the fluid model pays it even when nothing
preempts.  While a chunked transfer's path links carry no other flow,
the engine hands the whole remaining batch loop to
:meth:`FlowNetwork.start_macro_flow`, which replays the per-batch float
arithmetic analytically and arms a single completion timer: a quiescent
1 GB transfer costs O(1) events instead of O(size/batch).  Any
disturbance — a flow arriving on the component, pinned-pool contention —
splits the macro at the current batch boundary and the loop falls back
to per-batch flows.  ``per_batch`` is the exact reference: coalescing
matches it on the cases the differential property suite covers, but
not on every pinned-buffer path of a long bursty run (the grouter
``recognition`` workload diverges on some requests).  Select per engine
via ``mode=`` or globally with the ``REPRO_NET_TRANSFER`` environment
variable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.common.config import NET_TRANSFER_MODES, net_transfer_mode
from repro.common.errors import SimulationError
from repro.common.units import MB, US
from repro.net.links import Link
from repro.net.network import Flow, FlowNetwork
from repro.sim.core import Environment, Event
from repro.sim.resources import Container
from repro.telemetry.events import TransferFinished, TransferStarted

DEFAULT_CHUNK_SIZE = 2 * MB
DEFAULT_BATCH_CHUNKS = 5
# Connection / launch overhead charged once per batch: a CUDA stream
# launch plus synchronization is on the order of tens of microseconds.
DEFAULT_BATCH_SETUP = 20 * US

# Canonical mode list lives in repro.common.config; re-exported here
# for the existing import sites.
TRANSFER_MODES = NET_TRANSFER_MODES


@dataclass(frozen=True)
class Path:
    """An ordered sequence of directed links from source to destination."""

    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise SimulationError("empty path")
        for up, down in zip(self.links, self.links[1:]):
            if up.dst != down.src:
                raise SimulationError(
                    f"discontinuous path: {up.link_id} -> {down.link_id}"
                )
        # Links are immutable, so these are fixed at construction; the
        # chunk-batch loop asks for them on every batch otherwise.
        object.__setattr__(
            self, "_nominal_bandwidth", min(l.capacity for l in self.links)
        )
        object.__setattr__(
            self, "_propagation_latency", sum(l.latency for l in self.links)
        )
        object.__setattr__(
            self,
            "_devices",
            (self.links[0].src, *(link.dst for link in self.links)),
        )

    @property
    def src(self) -> str:
        return self.links[0].src

    @property
    def dst(self) -> str:
        return self.links[-1].dst

    @property
    def nominal_bandwidth(self) -> float:
        """Bottleneck capacity along the path (cached)."""
        return self._nominal_bandwidth

    @property
    def propagation_latency(self) -> float:
        """Sum of per-link propagation latencies (cached)."""
        return self._propagation_latency

    @property
    def hops(self) -> int:
        return len(self.links)

    def devices(self) -> list[str]:
        """All device ids the path touches, in order."""
        return list(self._devices)

    def __repr__(self) -> str:
        route = "->".join(self.devices())
        return f"<Path {route}>"


@dataclass
class TransferResult:
    """Outcome of a completed transfer."""

    size: float
    started_at: float
    finished_at: float
    paths: tuple[Path, ...]
    per_path_bytes: tuple[float, ...] = field(default=())

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def effective_bandwidth(self) -> float:
        return self.size / self.duration if self.duration > 0 else float("inf")


class _PinnedHold:
    """Pinned-pool bytes held on behalf of an in-flight macro-flow.

    The network refunds surplus through :meth:`refund` when a split
    reduces the claim to what the eager per-batch world would hold.
    """

    __slots__ = ("container", "amount")

    def __init__(self, container: Container) -> None:
        self.container = container
        self.amount = 0.0

    def refund(self, amount: float) -> None:
        self.amount -= amount
        self.container.put(amount)


class TransferEngine:
    """Executes (possibly multi-path, chunk-batched) transfers.

    A transfer runs as callbacks, not processes: one :class:`_Transfer`
    per :meth:`transfer` call and one :class:`_PathCursor` per path.
    Each arms its next step on the heap entry that a process per
    transfer and per path would wait on, at the point where that
    process would suspend, so the heap sees the same entries in the
    same order (the exactness rule in the module docstring).

    Parameters
    ----------
    env, network:
        The simulation environment and the flow network carrying data.
    chunk_size, batch_chunks, batch_setup:
        Chunking defaults; individual transfers may override.
    mode:
        ``"coalesced"`` (default) — quiescent chunk-batch loops collapse
        into analytic macro-flows, splitting back to per-batch flows on
        any disturbance; ``"per_batch"`` — every batch is its own flow
        (the original, always-eager behaviour).  When ``None``, the
        ``REPRO_NET_TRANSFER`` environment variable is consulted, so
        whole experiment runs can be A/B-compared without code changes.
    """

    _ids = itertools.count()

    def __init__(
        self,
        env: Environment,
        network: FlowNetwork,
        chunk_size: float = DEFAULT_CHUNK_SIZE,
        batch_chunks: int = DEFAULT_BATCH_CHUNKS,
        batch_setup: float = DEFAULT_BATCH_SETUP,
        mode: Optional[str] = None,
    ) -> None:
        if chunk_size <= 0 or batch_chunks < 1 or batch_setup < 0:
            raise SimulationError("invalid transfer engine parameters")
        # kwarg > REPRO_NET_TRANSFER > "coalesced"; raises ConfigError
        # (a SimulationError) on anything outside TRANSFER_MODES.
        mode = net_transfer_mode(mode)
        self.env = env
        self.network = network
        self.chunk_size = chunk_size
        self.batch_chunks = batch_chunks
        self.batch_setup = batch_setup
        self.mode = mode
        # id(container) -> [(flow, hold), ...] for live macro claims;
        # consulted by the Container.on_blocked hook.
        self._macro_holds: dict[int, list[tuple[Flow, _PinnedHold]]] = {}

    # -- public API -------------------------------------------------------
    def transfer(
        self,
        paths: Sequence[Path],
        size: float,
        min_rate: float = 0.0,
        slo_deadline: Optional[float] = None,
        chunked: bool = True,
        pinned_buffer: Optional[Container] = None,
        tag: str = "",
        owner: str = "",
    ) -> Event:
        """Move *size* bytes over *paths*; returns the completion event.

        The event's value is a :class:`TransferResult`; it fails with
        the error of the first path that fails (a cancelled flow, say).
        With ``chunked=False`` the whole payload is a single flow per
        path (how NCCL/NVSHMEM point-to-point transfers behave); with
        ``chunked=True`` GROUTER's batch pipeline is used.
        """
        if size <= 0:
            raise SimulationError(f"transfer size must be positive, got {size}")
        if not paths:
            raise SimulationError("transfer needs at least one path")
        transfer = _Transfer(
            self,
            tuple(paths),
            float(size),
            min_rate,
            slo_deadline,
            chunked,
            pinned_buffer,
            tag,
            owner,
        )
        self.env.schedule(0.0, transfer.start)
        return transfer.done

    def split_sizes(self, paths: Sequence[Path], size: float) -> list[float]:
        """Split *size* across *paths* proportionally to bandwidth."""
        total_bw = sum(path.nominal_bandwidth for path in paths)
        if total_bw <= 0:
            routes = ", ".join("->".join(path.devices()) for path in paths)
            raise SimulationError(
                "cannot split transfer: every path has zero nominal "
                f"bandwidth ({routes})"
            )
        shares = [size * path.nominal_bandwidth / total_bw for path in paths]
        # Fix rounding drift so the shares sum exactly to size.
        shares[-1] += size - sum(shares)
        return shares

    # -- pinned-pool contention hook --------------------------------------
    def _register_macro_hold(
        self, container: Container, flow: Flow, hold: _PinnedHold
    ) -> None:
        entries = self._macro_holds.setdefault(id(container), [])
        entries.append((flow, hold))
        if container.on_blocked is None:
            container.on_blocked = self._on_pinned_blocked

    def _unregister_macro_hold(self, container: Container, flow: Flow) -> None:
        entries = self._macro_holds.get(id(container))
        if not entries:
            return
        self._macro_holds[id(container)] = [
            entry for entry in entries if entry[0] is not flow
        ]

    def _on_pinned_blocked(self, container: Container) -> None:
        """A pinned-pool get would block: split our macro claims.

        Splitting refunds each macro's surplus above what the eager
        per-batch world would hold right now, so the blocked get is
        served exactly when it would have been at batch granularity.
        """
        for flow, _hold in list(self._macro_holds.get(id(container), ())):
            self.network.split_macro_for_pinned(flow)


class _Transfer:
    """One :meth:`TransferEngine.transfer` call: split, start paths, join.

    ``start`` runs at the transfer's bootstrap entry; ``path_ended``
    at each path's end entry; ``join`` at the one entry posted by the
    first failing path or the last finishing one, and it settles
    ``done``.
    """

    __slots__ = (
        "engine",
        "paths",
        "size",
        "min_rate",
        "slo_deadline",
        "chunked",
        "pinned",
        "tag",
        "owner",
        "done",
        "bus",
        "started",
        "transfer_id",
        "shares",
        "pending",
        "error",
    )

    def __init__(
        self,
        engine: TransferEngine,
        paths: tuple[Path, ...],
        size: float,
        min_rate: float,
        slo_deadline: Optional[float],
        chunked: bool,
        pinned: Optional[Container],
        tag: str,
        owner: str,
    ) -> None:
        self.engine = engine
        self.paths = paths
        self.size = size
        self.min_rate = min_rate
        self.slo_deadline = slo_deadline
        self.chunked = chunked
        self.pinned = pinned
        self.tag = tag
        self.owner = owner
        self.done = Event(engine.env)
        self.bus = None
        self.started = 0.0
        self.transfer_id = -1
        self.shares: tuple[float, ...] = ()
        # Paths still running; 0 once joined.
        self.pending = 0
        self.error: Optional[BaseException] = None

    def start(self) -> None:
        env = self.engine.env
        self.started = env.now
        # The bus is read once: a transfer publishes both of its events
        # to the bus it started on.
        bus = self.bus = env.telemetry
        if bus is not None:
            self.transfer_id = next(TransferEngine._ids)
            bus.publish(TransferStarted(
                self.started, self.transfer_id, self.tag, self.size,
                self.paths[0].src, self.paths[0].dst, len(self.paths),
                self.owner,
            ))
        try:
            shares = self.engine.split_sizes(self.paths, self.size)
        except Exception as error:
            self.done.fail(error)
            return
        self.shares = tuple(shares)
        for path, share in zip(self.paths, shares):
            if share <= 0:
                continue
            cursor = _PathCursor(
                self, path, share, self.min_rate * share / self.size
            )
            env.schedule(0.0, cursor.start)
            self.pending += 1
        if not self.pending:
            env.schedule(0.0, self.join)

    def path_ended(self, error: Optional[BaseException]) -> None:
        if not self.pending:
            return  # joined already: a failure settled the transfer
        if error is None:
            self.pending -= 1
            if self.pending:
                return
        else:
            self.error = error
            self.pending = 0
        self.engine.env.schedule(0.0, self.join)

    def join(self) -> None:
        if self.error is not None:
            self.done.fail(self.error)
            return
        now = self.engine.env.now
        if self.bus is not None:
            self.bus.publish(TransferFinished(
                now, self.transfer_id, self.tag, self.size, self.paths[0].src,
                self.paths[0].dst, self.started, self.owner,
            ))
        self.done.succeed(TransferResult(
            size=self.size,
            started_at=self.started,
            finished_at=now,
            paths=self.paths,
            per_path_bytes=self.shares,
        ))


class _PathCursor:
    """One path of a transfer: its batch loop, one callback per step.

    ``remaining`` is the loop's byte count after the batch in flight,
    ``block`` that batch's size and ``grab`` its pinned-ring claim;
    ``flow`` and ``hold`` are the macro-flow in flight and its pinned
    claim.  ``_next`` is the loop's head.
    """

    __slots__ = (
        "transfer",
        "engine",
        "path",
        "size",
        "min_rate",
        "remaining",
        "batch_bytes",
        "block",
        "grab",
        "flow",
        "hold",
        "error",
    )

    def __init__(
        self, transfer: _Transfer, path: Path, size: float, min_rate: float
    ) -> None:
        self.transfer = transfer
        self.engine = transfer.engine
        self.path = path
        self.size = size
        self.min_rate = min_rate
        self.remaining = size
        self.batch_bytes = 0.0
        self.block = 0.0
        self.grab = 0.0
        self.flow: Optional[Flow] = None
        self.hold: Optional[_PinnedHold] = None
        self.error: Optional[BaseException] = None

    def start(self) -> None:
        # Pipeline-fill latency: the first chunk must traverse every hop
        # before the stream reaches steady state, plus propagation.
        engine = self.engine
        path = self.path
        fill_latency = path.propagation_latency
        if self.transfer.chunked and path.hops > 1:
            first_chunk = min(engine.chunk_size, self.size)
            fill_latency += (path.hops - 1) * (
                first_chunk / path.nominal_bandwidth
            )
        if fill_latency > 0:
            engine.env.schedule(fill_latency, self._filled)
        else:
            self._filled()

    def _filled(self) -> None:
        engine = self.engine
        if not self.transfer.chunked:
            # One flow carries the whole share; then the path ends.
            self.block = self.size
            self.remaining = 0.0
            self._send()
            return
        self.batch_bytes = engine.chunk_size * engine.batch_chunks
        self._next()

    def _next(self) -> None:
        """The loop's head: end, coalesce the rest, or send a batch."""
        remaining = self.remaining
        if not remaining > 0:
            self._end(None)
            return
        engine = self.engine
        batch_bytes = self.batch_bytes
        if (
            engine.mode == "coalesced"
            and remaining > batch_bytes
            and engine.network.macro_eligible(self.path.links)
            and self._coalesce(remaining)
        ):
            return
        block = min(batch_bytes, remaining)
        self.block = block
        self.remaining = remaining - block
        if engine.batch_setup > 0:
            engine.env.schedule(engine.batch_setup, self._send)
        else:
            self._send()

    def _coalesce(self, remaining: float) -> bool:
        """Try one macro-flow for the rest of the loop.

        Returns ``False`` when coalescing is ineligible (the caller
        sends one per-batch iteration instead) and ``True`` once the
        macro is in flight, or once starting it failed the path.
        """
        engine = self.engine
        transfer = self.transfer
        pinned = transfer.pinned
        batch_bytes = self.batch_bytes
        grab = 0.0
        hold: Optional[_PinnedHold] = None
        if pinned is not None:
            # Eligibility requires the whole steady-state claim (one
            # full batch, what the eager loop holds at any instant) to
            # be grabbable without queueing behind anyone.
            grab = min(batch_bytes, pinned.capacity)
            if pinned.queue_len > 0 or pinned.level < grab:
                return False
            hold = _PinnedHold(pinned)
        try:
            flow = engine.network.start_macro_flow(
                self.path.links,
                remaining,
                batch_bytes,
                engine.batch_setup,
                min_rate=self.min_rate,
                slo_deadline=transfer.slo_deadline,
                tag=transfer.tag,
                owner=transfer.owner,
                pinned_hold=grab,
                pinned_refund=hold.refund if hold is not None else None,
            )
        except Exception as error:
            self._end(error)
            return True
        if flow is None:
            return False
        self.flow = flow
        if pinned is None:
            flow.done.callbacks.append(self._macro_done)
            return True
        got = pinned.get(grab)  # instant: level checked above
        hold.amount = grab
        self.hold = hold
        engine._register_macro_hold(pinned, flow, hold)
        got.callbacks.append(self._macro_granted)
        return True

    def _macro_granted(self, _event: Event) -> None:
        self.flow.done.callbacks.append(self._macro_done)

    def _macro_done(self, event: Event) -> None:
        """The macro-flow resolved: return its claim, resume the loop."""
        ok = event.ok
        if not ok:
            event.defuse()
        flow = self.flow
        self.flow = None
        pinned = self.transfer.pinned
        if pinned is not None:
            self.engine._unregister_macro_hold(pinned, flow)
            hold = self.hold
            self.hold = None
            if hold.amount > 0:
                pinned.put(hold.amount)
                hold.amount = 0.0
        if not ok:
            self._end(event.value)
            return
        outcome = flow.macro_outcome
        if outcome.kind == "completed":
            self._end(None)
            return
        self.remaining = outcome.rem_before - outcome.block
        if outcome.kind == "setup":
            # The split landed between batches; the setup delay was
            # already spent virtually, so send the boundary batch at its
            # virtual start without repeating it.
            self.block = outcome.block
            self.engine.env.schedule_at(outcome.resume_at, self._send)
            return
        # converted/truncated: done fired at the boundary batch's
        # completion.  The loop re-enters below it, and may re-coalesce
        # once the disturbance has passed.
        self._next()

    def _send(self) -> None:
        """Send ``block`` bytes as one flow, through the pinned ring."""
        pinned = self.transfer.pinned
        if pinned is None:
            self._start_flow()
            return
        self.grab = min(self.block, pinned.capacity)
        pinned.get(self.grab).callbacks.append(self._granted)

    def _granted(self, _event: Event) -> None:
        self._start_flow()

    def _start_flow(self) -> None:
        transfer = self.transfer
        try:
            flow = self.engine.network.start_flow(
                self.path.links,
                self.block,
                min_rate=self.min_rate,
                slo_deadline=transfer.slo_deadline,
                tag=transfer.tag,
                owner=transfer.owner,
            )
        except Exception as error:
            if transfer.pinned is not None:
                transfer.pinned.put(self.grab)
            self._end(error)
            return
        flow.done.callbacks.append(self._sent)

    def _sent(self, event: Event) -> None:
        """The batch's flow ended: return its pinned claim, then loop."""
        ok = event.ok
        if not ok:
            event.defuse()
        pinned = self.transfer.pinned
        if pinned is not None:
            pinned.put(self.grab)
        if not ok:
            self._end(event.value)
            return
        self._next()

    def _end(self, error: Optional[BaseException]) -> None:
        self.error = error
        self.engine.env.schedule(0.0, self._ended)

    def _ended(self) -> None:
        self.transfer.path_ended(self.error)


def single_flow_event(
    network: FlowNetwork, path: Path, size: float, tag: str = ""
) -> Event:
    """Convenience: start an unchunked flow and return its done-event."""
    flow = network.start_flow(path.links, size, tag=tag)
    return flow.done
