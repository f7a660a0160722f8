"""Latency/throughput statistics helpers used across experiments.

Two recorder flavours share one duck-typed API (``add`` / ``extend`` /
``percentile`` / ``mean`` / ``maximum`` / ``cdf``):

- :class:`LatencyRecorder` keeps every sample — the exact oracle.
- :class:`ReservoirRecorder` keeps a fixed-size uniform reservoir
  (Vitter's Algorithm R) plus exact running count/sum/min/max, so its
  memory is flat in sample count while count, mean, min and max stay
  exact and quantiles carry a documented sampling error.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError


class LatencyRecorder:
    """Accumulates latency samples and reports percentiles.

    The sorted view backing :meth:`percentile` and :meth:`cdf` is
    cached between mutations, so repeated quantile probes over a
    stable window (the elastic-pool controller's access pattern) cost
    one sort, not one per probe.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: list[float] = []
        self._sorted: Optional[np.ndarray] = None

    def add(self, value: float) -> None:
        if value < 0:
            raise ConfigError(f"negative latency sample {value}")
        self._samples.append(value)
        self._sorted = None

    def extend(self, values: Sequence[float]) -> None:
        """Bulk append: validate everything, then one list extend."""
        values = list(values)
        for value in values:
            if value < 0:
                raise ConfigError(f"negative latency sample {value}")
        self._samples.extend(values)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def _sorted_view(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(np.asarray(self._samples, dtype=float))
        return self._sorted

    def percentile(self, p: float) -> float:
        if not self._samples:
            return float("nan")
        return float(np.percentile(self._sorted_view(), p))

    @property
    def mean(self) -> float:
        return float(np.mean(self._samples)) if self._samples else float("nan")

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def maximum(self) -> float:
        return max(self._samples) if self._samples else float("nan")

    @property
    def minimum(self) -> float:
        return min(self._samples) if self._samples else float("nan")

    def cdf(self, points: int = 100) -> tuple[list[float], list[float]]:
        """(latency, cumulative fraction) pairs for CDF plots."""
        if not self._samples:
            return [], []
        ordered = self._sorted_view().tolist()
        fractions = [(i + 1) / len(ordered) for i in range(len(ordered))]
        if len(ordered) <= points:
            return ordered, fractions
        idx = np.linspace(0, len(ordered) - 1, points).astype(int)
        return [ordered[i] for i in idx], [fractions[i] for i in idx]


DEFAULT_RESERVOIR_CAPACITY = 4096
# One-sided z for the documented quantile error bound: the estimated
# p-quantile's rank error is Normal(0, p(1-p)/k) in the large-sample
# limit; 4.9 sigma keeps a 100-distribution property suite essentially
# free of statistical flakes (P[miss] ~ 1e-6 per probe).
RANK_ERROR_SIGMA = 4.9


def reservoir_rank_error(p: float,
                         capacity: int = DEFAULT_RESERVOIR_CAPACITY) -> float:
    """Documented quantile error bound, in rank-percentile points.

    A capacity-``k`` uniform reservoir estimates the ``p``-th
    percentile to within ``RANK_ERROR_SIGMA * sqrt(q(1-q)/k) * 100``
    rank points (``q = p/100``): the estimate lies between the exact
    ``p - err`` and ``p + err`` percentiles with probability
    ~``1 - 1e-6``.
    """
    q = min(max(p / 100.0, 0.0), 1.0)
    return RANK_ERROR_SIGMA * ((q * (1.0 - q)) / capacity) ** 0.5 * 100.0


class ReservoirRecorder:
    """Bounded-memory latency recorder: Algorithm-R uniform reservoir.

    Count, mean (running sum), minimum and maximum are tracked exactly;
    quantiles are estimated from the reservoir with the rank error
    bound documented by :func:`reservoir_rank_error`.  The replacement
    RNG is seeded from ``(name, seed)``, so a given fold order always
    produces the identical reservoir — replaying a spooled event stream
    through a fresh registry reproduces approximate summaries bit-for-
    bit.
    """

    def __init__(
        self,
        name: str = "",
        capacity: int = DEFAULT_RESERVOIR_CAPACITY,
        seed: int = 0,
    ) -> None:
        if capacity < 2:
            raise ConfigError(f"reservoir capacity must be >= 2, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._rng = random.Random(zlib.crc32(name.encode()) ^ seed)
        self._reservoir: list[float] = []
        self._sorted: Optional[np.ndarray] = None
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, value: float) -> None:
        if value < 0:
            raise ConfigError(f"negative latency sample {value}")
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(value)
            self._sorted = None
        else:
            j = self._rng.randrange(self._count)
            if j < self.capacity:
                self._reservoir[j] = value
                self._sorted = None

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    def __len__(self) -> int:
        return self._count

    @property
    def samples(self) -> list[float]:
        """The current reservoir content (NOT the full sample set)."""
        return list(self._reservoir)

    def _sorted_view(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(np.asarray(self._reservoir, dtype=float))
        return self._sorted

    def percentile(self, p: float) -> float:
        if not self._reservoir:
            return float("nan")
        return float(np.percentile(self._sorted_view(), p))

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def maximum(self) -> float:
        return self._max if self._count else float("nan")

    @property
    def minimum(self) -> float:
        return self._min if self._count else float("nan")

    def cdf(self, points: int = 100) -> tuple[list[float], list[float]]:
        """Approximate CDF from the reservoir."""
        if not self._reservoir:
            return [], []
        ordered = self._sorted_view().tolist()
        fractions = [(i + 1) / len(ordered) for i in range(len(ordered))]
        if len(ordered) <= points:
            return ordered, fractions
        idx = np.linspace(0, len(ordered) - 1, points).astype(int)
        return [ordered[i] for i in idx], [fractions[i] for i in idx]


@dataclass
class Timeline:
    """A time series of (t, value) samples (memory usage, rates, ...)."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def sample(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ConfigError("timeline samples must be time-ordered")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def peak(self) -> float:
        return max(self.values) if self.values else float("nan")

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")


def find_max_throughput(
    is_sustainable: Callable[[float], bool],
    low: float,
    high: float,
    tolerance: float = 0.05,
    max_iterations: int = 12,
) -> float:
    """Binary-search the highest sustainable offered load.

    ``is_sustainable(rate)`` runs the system at *rate* and reports
    whether it kept up (SLOs met / queues stable).  Assumes a monotone
    boundary.  Returns the highest rate found sustainable.
    """
    if low <= 0 or high <= low:
        raise ConfigError("need 0 < low < high")
    if not is_sustainable(low):
        return 0.0
    best = low
    if is_sustainable(high):
        return high
    for _ in range(max_iterations):
        mid = (low + high) / 2
        if is_sustainable(mid):
            best = mid
            low = mid
        else:
            high = mid
        if (high - low) / max(best, 1e-12) < tolerance:
            break
    return best
