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
from repro.sim.core import Environment, Event, Process
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
    ) -> Process:
        """Move *size* bytes over *paths*; returns the completion process.

        The process's value is a :class:`TransferResult`.  With
        ``chunked=False`` the whole payload is a single flow per path
        (how NCCL/NVSHMEM point-to-point transfers behave); with
        ``chunked=True`` GROUTER's batch pipeline is used.
        """
        if size <= 0:
            raise SimulationError(f"transfer size must be positive, got {size}")
        if not paths:
            raise SimulationError("transfer needs at least one path")
        return self.env.process(
            self._run(
                tuple(paths),
                float(size),
                min_rate,
                slo_deadline,
                chunked,
                pinned_buffer,
                tag,
                owner,
            )
        )

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

    # -- internals ------------------------------------------------------------
    def _run(
        self,
        paths: tuple[Path, ...],
        size: float,
        min_rate: float,
        slo_deadline: Optional[float],
        chunked: bool,
        pinned_buffer: Optional[Container],
        tag: str,
        owner: str,
    ):
        started = self.env.now
        bus = self.env.telemetry
        transfer_id = -1
        if bus is not None:
            transfer_id = next(TransferEngine._ids)
            bus.publish(TransferStarted(
                t=started,
                transfer_id=transfer_id,
                tag=tag,
                size=size,
                src=paths[0].src,
                dst=paths[0].dst,
                num_paths=len(paths),
                owner=owner,
            ))
        shares = self.split_sizes(paths, size)
        workers = []
        for path, share in zip(paths, shares):
            if share <= 0:
                continue
            path_min_rate = min_rate * share / size
            workers.append(
                self.env.process(
                    self._run_path(
                        path,
                        share,
                        path_min_rate,
                        slo_deadline,
                        chunked,
                        pinned_buffer,
                        tag,
                        owner,
                    )
                )
            )
        yield self.env.all_of(workers)
        if bus is not None:
            bus.publish(TransferFinished(
                t=self.env.now,
                transfer_id=transfer_id,
                tag=tag,
                size=size,
                src=paths[0].src,
                dst=paths[0].dst,
                started_at=started,
                owner=owner,
            ))
        return TransferResult(
            size=size,
            started_at=started,
            finished_at=self.env.now,
            paths=paths,
            per_path_bytes=tuple(shares),
        )

    def _run_path(
        self,
        path: Path,
        size: float,
        min_rate: float,
        slo_deadline: Optional[float],
        chunked: bool,
        pinned_buffer: Optional[Container],
        tag: str,
        owner: str,
    ):
        # Pipeline-fill latency: the first chunk must traverse every hop
        # before the stream reaches steady state, plus propagation.
        fill_latency = path.propagation_latency
        if chunked and path.hops > 1:
            first_chunk = min(self.chunk_size, size)
            fill_latency += (path.hops - 1) * (
                first_chunk / path.nominal_bandwidth
            )
        if fill_latency > 0:
            yield self.env.timeout(fill_latency)

        if not chunked:
            yield from self._send_block(
                path, size, min_rate, slo_deadline, pinned_buffer, tag, owner
            )
            return

        batch_bytes = self.chunk_size * self.batch_chunks
        remaining = size
        while remaining > 0:
            if (
                self.mode == "coalesced"
                and remaining > batch_bytes
                and self.network.macro_eligible(path.links)
            ):
                outcome = yield from self._run_macro(
                    path,
                    remaining,
                    batch_bytes,
                    min_rate,
                    slo_deadline,
                    pinned_buffer,
                    tag,
                    owner,
                )
                if outcome is not None:
                    if outcome.kind == "completed":
                        return
                    if outcome.kind == "setup":
                        # The split landed between batches; the setup
                        # delay was already spent virtually, so send the
                        # boundary batch without repeating it.
                        yield self.env.timeout_until(outcome.resume_at)
                        yield from self._send_block(
                            path,
                            outcome.block,
                            min_rate,
                            slo_deadline,
                            pinned_buffer,
                            tag,
                            owner,
                        )
                    # converted/truncated: done already fired at the
                    # boundary batch's completion.  Either way the loop
                    # re-enters below it — and may re-coalesce once the
                    # disturbance has passed.
                    remaining = outcome.rem_before - outcome.block
                    continue
            block = min(batch_bytes, remaining)
            if self.batch_setup > 0:
                yield self.env.timeout(self.batch_setup)
            yield from self._send_block(
                path, block, min_rate, slo_deadline, pinned_buffer, tag, owner
            )
            remaining -= block

    def _run_macro(
        self,
        path: Path,
        remaining: float,
        batch_bytes: float,
        min_rate: float,
        slo_deadline: Optional[float],
        pinned_buffer: Optional[Container],
        tag: str,
        owner: str,
    ):
        """Attempt one macro-flow for the remaining batch loop.

        Returns the :class:`~repro.net.network.MacroOutcome` on
        success, or ``None`` when coalescing is ineligible (the caller
        falls back to a single per-batch iteration).
        """
        grab = 0.0
        hold: Optional[_PinnedHold] = None
        if pinned_buffer is not None:
            # Eligibility requires the whole steady-state claim (one
            # full batch, what the eager loop holds at any instant) to
            # be grabbable without queueing behind anyone.
            grab = min(batch_bytes, pinned_buffer.capacity)
            if pinned_buffer.queue_len > 0 or pinned_buffer.level < grab:
                return None
            hold = _PinnedHold(pinned_buffer)
        flow = self.network.start_macro_flow(
            path.links,
            remaining,
            batch_bytes,
            self.batch_setup,
            min_rate=min_rate,
            slo_deadline=slo_deadline,
            tag=tag,
            owner=owner,
            pinned_hold=grab,
            pinned_refund=hold.refund if hold is not None else None,
        )
        if flow is None:
            return None
        if pinned_buffer is not None:
            got = pinned_buffer.get(grab)  # instant: level checked above
            hold.amount = grab
            self._register_macro_hold(pinned_buffer, flow, hold)
            yield got
        try:
            yield flow.done
        finally:
            if pinned_buffer is not None:
                self._unregister_macro_hold(pinned_buffer, flow)
                if hold.amount > 0:
                    pinned_buffer.put(hold.amount)
                    hold.amount = 0.0
        return flow.macro_outcome

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

    def _send_block(
        self,
        path: Path,
        size: float,
        min_rate: float,
        slo_deadline: Optional[float],
        pinned_buffer: Optional[Container],
        tag: str,
        owner: str,
    ):
        if pinned_buffer is not None:
            grab = min(size, pinned_buffer.capacity)
            yield pinned_buffer.get(grab)
        else:
            grab = 0.0
        try:
            flow = self.network.start_flow(
                path.links,
                size,
                min_rate=min_rate,
                slo_deadline=slo_deadline,
                tag=tag,
                owner=owner,
            )
            yield flow.done
        finally:
            if pinned_buffer is not None:
                pinned_buffer.put(grab)


def single_flow_event(
    network: FlowNetwork, path: Path, size: float, tag: str = ""
) -> Event:
    """Convenience: start an unchunked flow and return its done-event."""
    flow = network.start_flow(path.links, size, tag=tag)
    return flow.done
