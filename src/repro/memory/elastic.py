"""Elastic GPU storage scaling (paper §4.4.1).

GROUTER pre-warms pool memory the way serverless platforms pre-warm
functions: per function it tracks the 99th percentile of request
inter-arrival intervals (``R_window``), intermediate data sizes
(``R_size``) and data accumulation / concurrency (``R_con``).  After an
execution, ``R_size * R_con`` bytes stay reserved for ``R_window``; if
no new request arrives within the window, the reservation lapses.  A
minimum pool (300 MB by default) absorbs bursts.

Each window keeps a sorted copy beside its FIFO deque, updated by
bisection on every push and eviction, so a P99 is two list reads and
numpy's ``linear`` interpolation replayed in plain floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.common.errors import ConfigError
from repro.common.units import MB, MS
from repro.memory.pool import MemoryPool
from repro.sim.core import Environment

DEFAULT_MIN_POOL = 300 * MB
DEFAULT_PERCENTILE = 99.0
DEFAULT_HISTORY = 512


def _check_percentile(percentile: float) -> None:
    """Reject what ``np.percentile`` would: ``percentile / 100`` outside [0, 1]."""
    if not 0.0 <= percentile / 100 <= 1.0:
        raise ConfigError(f"percentile must be in [0, 100], got {percentile!r}")


def _sorted_percentile(ordered: list, percentile: float) -> float:
    """``float(np.percentile(ordered, percentile))`` for a sorted, non-empty list.

    numpy's default ``linear`` method step for step: the virtual index
    ``(n - 1) * q`` with ``q = percentile / 100``, its floor, and
    ``_lerp``'s two formulas split at ``t >= 0.5``; at or past the last
    index, the maximum.
    """
    last = len(ordered) - 1
    virtual = last * (percentile / 100)
    if virtual >= last:
        return float(ordered[last])
    below = math.floor(virtual)
    a = ordered[below]
    b = ordered[below + 1]
    t = virtual - below
    diff = b - a
    if t >= 0.5:
        return float(b - diff * (1 - t))
    return float(a + diff * t)


@dataclass
class FunctionHistogram:
    """Sliding-window histograms for one function (paper Fig. 11(a)).

    The windows change only through the ``observe_*`` hooks, which keep
    each deque's sorted copy in step with it.
    """

    history: int = DEFAULT_HISTORY
    percentile: float = DEFAULT_PERCENTILE
    intervals: Deque[float] = field(default_factory=deque)
    sizes: Deque[float] = field(default_factory=deque)
    concurrency: Deque[int] = field(default_factory=deque)
    last_arrival: Optional[float] = None
    _live_objects: int = 0

    def __post_init__(self) -> None:
        _check_percentile(self.percentile)
        self._sorted_intervals = sorted(self.intervals)
        self._sorted_sizes = sorted(self.sizes)
        self._sorted_concurrency = sorted(self.concurrency)

    def observe_arrival(self, now: float) -> None:
        if self.last_arrival is not None:
            self._push(
                self.intervals, self._sorted_intervals, now - self.last_arrival
            )
        self.last_arrival = now

    def observe_put(self, size: float) -> None:
        self._push(self.sizes, self._sorted_sizes, size)
        self._live_objects += 1
        self._push(
            self.concurrency, self._sorted_concurrency, self._live_objects
        )

    def observe_consume(self) -> None:
        self._live_objects = max(0, self._live_objects - 1)

    def _push(self, series: Deque, ordered: list, value) -> None:
        series.append(value)
        insort(ordered, value)
        while len(series) > self.history:
            del ordered[bisect_left(ordered, series.popleft())]

    # -- predictions ------------------------------------------------------
    @property
    def r_window(self) -> float:
        """P99 inter-arrival interval; how long to keep memory warm."""
        if not self.intervals:
            return 0.0
        return _sorted_percentile(self._sorted_intervals, self.percentile)

    @property
    def r_size(self) -> float:
        if not self.sizes:
            return 0.0
        return _sorted_percentile(self._sorted_sizes, self.percentile)

    @property
    def r_con(self) -> float:
        if not self.concurrency:
            return 1.0
        return _sorted_percentile(self._sorted_concurrency, self.percentile)

    def reservation(self, now: float) -> float:
        """Bytes to keep reserved for this function at time *now*.

        ``R_size * R_con`` while the pre-warm window is open, else 0
        (the indicator term in the paper's MemPool_size formula).
        """
        if self.last_arrival is None:
            return 0.0
        if now - self.last_arrival > self.r_window:
            return 0.0
        return self.r_size * self.r_con


class ElasticPoolManager:
    """Continuously trims a pool's reservation to predicted demand."""

    def __init__(
        self,
        env: Environment,
        pool: MemoryPool,
        min_pool: float = DEFAULT_MIN_POOL,
        check_interval: float = 100 * MS,
        percentile: float = DEFAULT_PERCENTILE,
    ) -> None:
        if check_interval <= 0:
            raise ConfigError("check_interval must be positive")
        _check_percentile(percentile)
        self.env = env
        self.pool = pool
        self.min_pool = min_pool
        self.check_interval = check_interval
        self.percentile = percentile
        self._histograms: dict[str, FunctionHistogram] = {}
        self._running = False
        self._check_armed = False

    def histogram(self, function_name: str) -> FunctionHistogram:
        hist = self._histograms.get(function_name)
        if hist is None:
            hist = FunctionHistogram(percentile=self.percentile)
            self._histograms[function_name] = hist
        return hist

    # -- observation hooks ---------------------------------------------------
    def notify_arrival(self, function_name: str) -> None:
        self.histogram(function_name).observe_arrival(self.env.now)
        self.poke()

    def notify_put(self, function_name: str, size: float) -> None:
        self.histogram(function_name).observe_put(size)
        self.poke()

    def notify_consume(self, function_name: str) -> None:
        self.histogram(function_name).observe_consume()
        self.poke()

    # -- sizing ---------------------------------------------------------------
    def target_size(self) -> float:
        """MemPool_size = sum of active function reservations + floor."""
        now = self.env.now
        demand = sum(
            hist.reservation(now) for hist in self._histograms.values()
        )
        return max(self.min_pool, demand)

    def start(self) -> None:
        """Enable auto-trimming (idempotent).

        Trimming is event-driven: a check is armed whenever there could
        be work (pool above target, or pre-warm windows still open) and
        the loop goes quiet otherwise, so an idle simulation drains.
        Call :meth:`poke` after observations to re-arm.
        """
        self._running = True
        self.poke()

    def stop(self) -> None:
        self._running = False

    def poke(self) -> None:
        """Arm a trim check if auto-trimming is on and none is pending."""
        if not self._running or self._check_armed:
            return
        if not self._work_possible():
            return
        self._check_armed = True
        self.env.schedule(self.check_interval, self._check)

    def _work_possible(self) -> bool:
        if self.pool.reserved > self.min_pool:
            return True
        # Open pre-warm windows can still change the target.
        now = self.env.now
        return any(
            hist.reservation(now) > 0 for hist in self._histograms.values()
        )

    def _check(self) -> None:
        """One trim check; re-arms now, or once the trim has finished."""
        self._check_armed = False
        if not self._running:
            return
        target = self.target_size()
        if self.pool.reserved > target:
            self.pool.trim(target).subscribe(self._after_trim)
            return
        self.poke()

    def _after_trim(self, _trim) -> None:
        self.poke()
