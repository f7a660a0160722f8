"""Declarative SLOs evaluated over rolling windows of the event stream.

An :class:`SloSpec` names one objective over one request-level metric:

- ``latency``    — end-to-end seconds per request
- ``ttft``       — arrival to first compute output (time-to-first-token
  for the LLM workflows; first ``exec`` span end otherwise)
- ``data_share`` — fraction of end-to-end latency spent moving data
  (get + put + egress spans), the paper's §3 headline ratio

A sample is **good** when the metric is at or below ``threshold``.
The spec is met while the fraction of bad samples inside the trailing
``window`` stays within the error budget ``1 - objective``; **burn
rate** is the windowed bad fraction divided by that budget (burn 1.0 =
exactly consuming budget; > 1.0 = violating).  Contiguous stretches
with burn > 1 form **violation episodes** whose length is the
time-to-recovery the chaos harness will assert on.

Evaluation is strictly event-edge driven: state changes only when a
sample arrives or :meth:`~SloTracker.finalize` trims the window at
end of stream, so replaying a spool reproduces attainment, burn and
episodes bit-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.errors import ConfigError
from repro.telemetry.events import (
    RequestArrived,
    RequestFinished,
    StageSpan,
    TelemetryEvent,
)

SLO_KINDS = ("latency", "ttft", "data_share")

#: Span kinds whose durations count as data passing (matches
#: ``RequestResult.data_time``: Get + Put + egress).
DATA_SPAN_KINDS = ("get", "put", "egress")


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective.

    ``objective`` is the target good fraction (0.99 = "99% of requests
    ..."); ``window`` the rolling evaluation horizon in simulation
    seconds; ``threshold`` the per-sample bound in the metric's unit
    (seconds for ``latency``/``ttft``, a fraction for ``data_share``).
    """

    name: str
    kind: str
    threshold: float = 0.0
    objective: float = 0.99
    window: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ConfigError(
                f"unknown SLO kind {self.kind!r}; choose from {SLO_KINDS}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigError("objective must be in (0, 1)")
        if self.window <= 0:
            raise ConfigError("window must be positive")


@dataclass
class Episode:
    """One contiguous violation (burn rate above 1.0)."""

    start: float
    end: Optional[float] = None

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def ttr(self) -> Optional[float]:
        """Time-to-recovery; None while the episode is still open."""
        if self.end is None:
            return None
        return self.end - self.start


class SloTracker:
    """Rolling-window evaluation of one :class:`SloSpec`."""

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.good = 0
        self.bad = 0
        self._window: deque[tuple[float, bool]] = deque()
        self._window_bad = 0
        self.episodes: list[Episode] = []
        self.worst_burn = 0.0
        # Ring-bounded like every other series: the burn trace feeds a
        # Perfetto counter track, not the verdicts, so eviction is safe.
        self.burn_history: deque[tuple[float, float]] = deque(maxlen=4096)
        self._finalized = False

    # -- sampling -------------------------------------------------------------
    def observe(self, t: float, value: float) -> None:
        """Fold one metric sample taken at time *t*."""
        if self._finalized:
            raise ConfigError("tracker already finalized")
        good = value <= self.spec.threshold
        if good:
            self.good += 1
        else:
            self.bad += 1
        self._window.append((t, good))
        if not good:
            self._window_bad += 1
        self._trim(t)
        self._update_state(t)

    def finalize(self, t_end: float) -> None:
        """End of stream: trim the window forward and close episodes.

        An empty (fully drained) window is compliant, so a violation
        whose bad samples have aged out recovers at ``t_end`` — giving
        every episode a finite time-to-recovery.  Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        self._trim(t_end)
        self._update_state(t_end)
        if self.episodes and self.episodes[-1].open:
            self.episodes[-1].end = t_end

    # -- internals ------------------------------------------------------------
    def _trim(self, now: float) -> None:
        cutoff = now - self.spec.window
        window = self._window
        while window and window[0][0] < cutoff:
            _t, good = window.popleft()
            if not good:
                self._window_bad -= 1

    def _update_state(self, now: float) -> None:
        burn = self.burn_rate
        if burn > self.worst_burn:
            self.worst_burn = burn
        self.burn_history.append((now, burn))
        violating = burn > 1.0
        if violating:
            if not self.episodes or not self.episodes[-1].open:
                self.episodes.append(Episode(start=now))
        elif self.episodes and self.episodes[-1].open:
            self.episodes[-1].end = now

    # -- reporting ------------------------------------------------------------
    @property
    def total(self) -> int:
        return self.good + self.bad

    @property
    def attainment(self) -> float:
        """Overall good fraction (1.0 on an empty stream: nothing broke)."""
        if self.total == 0:
            return 1.0
        return self.good / self.total

    @property
    def burn_rate(self) -> float:
        """Current windowed bad fraction over the error budget."""
        if not self._window:
            return 0.0
        bad_fraction = self._window_bad / len(self._window)
        return bad_fraction / (1.0 - self.spec.objective)

    @property
    def met(self) -> bool:
        """Whether the objective held for the whole stream."""
        return not self.episodes and self.attainment >= self.spec.objective

    def report(self) -> dict:
        spec = self.spec
        return {
            "name": spec.name,
            "kind": spec.kind,
            "threshold": spec.threshold,
            "objective": spec.objective,
            "window": spec.window,
            "total": self.total,
            "good": self.good,
            "bad": self.bad,
            "attainment": self.attainment,
            "worst_burn": self.worst_burn,
            "met": self.met,
            "episodes": [
                {"start": ep.start, "end": ep.end, "ttr": ep.ttr}
                for ep in self.episodes
            ],
        }


def default_specs(
    latency_s: float = 5.0,
    ttft_s: float = 5.0,
    data_share_max: float = 0.9,
    objective: float = 0.95,
    window: float = 5.0,
) -> tuple[SloSpec, ...]:
    """The standard three-spec board the ``repro health`` CLI evaluates.

    Defaults are deliberately generous: a healthy quick experiment run
    should report 100% attainment everywhere; tighten per-flag to make
    the board bite.
    """
    return (
        SloSpec("latency", "latency", threshold=latency_s,
                objective=objective, window=window),
        SloSpec("ttft", "ttft", threshold=ttft_s,
                objective=objective, window=window),
        SloSpec("data_share", "data_share", threshold=data_share_max,
                objective=objective, window=window),
    )


class _RequestAssembly:
    """Per-request metric accumulation between arrival and finish."""

    __slots__ = ("arrived_at", "first_exec_end", "data_time")

    def __init__(self, arrived_at: float) -> None:
        self.arrived_at = arrived_at
        self.first_exec_end: Optional[float] = None
        self.data_time = 0.0


class SloBoard:
    """Feeds a set of :class:`SloTracker`\\ s from the event stream.

    Events arrive one at a time through :meth:`feed`, live or replayed
    from a spool; both fold the identical stream, so reports match
    bit-for-bit.  Per-request assembly state is dropped on finish,
    keeping the board's memory proportional to in-flight requests, not
    stream length.
    """

    def __init__(self, specs: Iterable[SloSpec] = ()) -> None:
        specs = tuple(specs) if specs else default_specs()
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate SLO spec names in {names}")
        self.trackers: dict[str, SloTracker] = {
            spec.name: SloTracker(spec) for spec in specs
        }
        self._pending: dict[str, _RequestAssembly] = {}
        self.max_t = 0.0

    # -- intake ---------------------------------------------------------------
    def feed(self, event: TelemetryEvent) -> None:
        if isinstance(event, RequestArrived):
            self._on_arrived(event)
        elif isinstance(event, RequestFinished):
            self._on_finished(event)
        elif isinstance(event, StageSpan):
            self._on_span(event)

    def finalize(self, t_end: Optional[float] = None) -> None:
        """Close the stream: trim windows, close open episodes."""
        end = self.max_t if t_end is None else t_end
        for tracker in self.trackers.values():
            tracker.finalize(end)

    # -- handlers -------------------------------------------------------------
    def _observe_t(self, t: float) -> None:
        if t > self.max_t:
            self.max_t = t

    def _sample(self, name: str, t: float, value: float) -> None:
        tracker = self.trackers.get(name)
        if tracker is not None:
            tracker.observe(t, value)

    def _on_arrived(self, event: RequestArrived) -> None:
        self._observe_t(event.t)
        self._pending[event.request_id] = _RequestAssembly(event.t)

    def _on_span(self, event: StageSpan) -> None:
        self._observe_t(event.t)
        assembly = self._pending.get(event.request_id)
        if assembly is None:
            return
        if event.kind == "exec" and assembly.first_exec_end is None:
            assembly.first_exec_end = event.end
        elif event.kind in DATA_SPAN_KINDS:
            assembly.data_time += event.end - event.start

    def _on_finished(self, event: RequestFinished) -> None:
        self._observe_t(event.t)
        self._sample("latency", event.t, event.latency)
        assembly = self._pending.pop(event.request_id, None)
        if assembly is None:
            return
        if assembly.first_exec_end is not None:
            self._sample("ttft", event.t,
                         assembly.first_exec_end - assembly.arrived_at)
        if event.latency > 0:
            self._sample("data_share", event.t,
                         assembly.data_time / event.latency)

    # -- reporting ------------------------------------------------------------
    def report(self) -> dict:
        """One report dict per spec, keyed by spec name (sorted)."""
        return {
            name: tracker.report()
            for name, tracker in sorted(self.trackers.items())
        }

    @property
    def met(self) -> bool:
        return all(tracker.met for tracker in self.trackers.values())

    @property
    def episode_count(self) -> int:
        return sum(len(t.episodes) for t in self.trackers.values())
