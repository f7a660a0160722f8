"""Namespaced metrics registry: counters, gauges, histograms.

Built on the statistics primitives the experiments already use
(:class:`~repro.metrics.LatencyRecorder` for histograms,
:class:`~repro.metrics.Timeline` for gauges).  Metric names are
dot-namespaced — ``net.bytes_moved``, ``memory.pool_in_use.n0.g0`` —
and the first component is the subsystem namespace the summary groups
by.

Two registry modes share an identical summary shape:

- ``exact`` (default): histograms keep every sample, gauges keep their
  full :class:`~repro.metrics.Timeline` — the differential oracle.
- ``bounded``: histograms use a fixed-size
  :class:`~repro.metrics.ReservoirRecorder` (count/mean/max exact,
  quantiles within :func:`~repro.metrics.reservoir_rank_error` bounds)
  and gauges keep O(1) scalar aggregates (last/peak/samples exact,
  mean as a running sum).  Memory is flat in event count, which is
  what lets million-request trace runs keep full metric summaries.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.common.errors import ConfigError
from repro.metrics.stats import (
    DEFAULT_RESERVOIR_CAPACITY,
    LatencyRecorder,
    ReservoirRecorder,
    Timeline,
)

REGISTRY_MODES = ("exact", "bounded")


class Counter:
    """A monotonically increasing count (or byte total)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name} increment must be >= 0")
        self.value += amount


class Gauge:
    """A sampled time-varying value, backed by a :class:`Timeline`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.timeline = Timeline()

    def set(self, t: float, value: float) -> None:
        # A registry can outlive several simulation runs (capture()
        # spans many fresh environments), so the clock may restart;
        # clamp to keep the backing timeline monotonic.
        if self.timeline.times and t < self.timeline.times[-1]:
            t = self.timeline.times[-1]
        self.timeline.sample(t, value)

    def __len__(self) -> int:
        return len(self.timeline)

    @property
    def last(self) -> float:
        return self.timeline.values[-1] if len(self.timeline) else float("nan")

    @property
    def peak(self) -> float:
        return self.timeline.peak

    @property
    def mean(self) -> float:
        return self.timeline.mean


class BoundedGauge:
    """O(1) gauge: exact last/peak/count, mean as a running sum.

    Drops the per-sample timeline, which is the trade a
    million-request streaming run makes; ``last``/``peak`` are exact,
    ``mean`` differs from the exact oracle only by running- vs
    pairwise float summation.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._last = float("nan")
        self._last_t = float("-inf")
        self._peak = float("-inf")

    def set(self, t: float, value: float) -> None:
        # Same clock-restart clamp as Gauge: time never runs backwards.
        if t < self._last_t:
            t = self._last_t
        self._last_t = t
        self._last = value
        self._count += 1
        self._sum += value
        if value > self._peak:
            self._peak = value

    def __len__(self) -> int:
        return self._count

    @property
    def last(self) -> float:
        return self._last

    @property
    def peak(self) -> float:
        return self._peak if self._count else float("nan")

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")


class Histogram:
    """A distribution of observations.

    ``exact`` mode is backed by a :class:`LatencyRecorder` holding
    every sample; ``bounded`` mode by a fixed-capacity
    :class:`ReservoirRecorder`.
    """

    def __init__(self, name: str, mode: str = "exact",
                 reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY) -> None:
        self.name = name
        self.mode = mode
        if mode == "exact":
            self.recorder: Union[LatencyRecorder, ReservoirRecorder] = (
                LatencyRecorder(name)
            )
        elif mode == "bounded":
            self.recorder = ReservoirRecorder(
                name, capacity=reservoir_capacity
            )
        else:
            raise ConfigError(
                f"unknown histogram mode {mode!r}; choose from "
                f"{REGISTRY_MODES}"
            )

    def observe(self, value: float) -> None:
        self.recorder.add(value)

    def __len__(self) -> int:
        return len(self.recorder)


Metric = Union[Counter, Gauge, BoundedGauge, Histogram]
_GAUGE_TYPES = (Gauge, BoundedGauge)


class MetricsRegistry:
    """Creates and holds metrics under dot-separated namespaces."""

    def __init__(self, mode: str = "exact",
                 reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY) -> None:
        if mode not in REGISTRY_MODES:
            raise ConfigError(
                f"unknown registry mode {mode!r}; choose from "
                f"{REGISTRY_MODES}"
            )
        self.mode = mode
        self.reservoir_capacity = reservoir_capacity
        self._metrics: dict[str, Metric] = {}

    def _get(self, name: str, kinds, factory):
        if "." not in name:
            raise ConfigError(
                f"metric name {name!r} needs a namespace (e.g. 'net.{name}')"
            )
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name)
            self._metrics[name] = metric
        elif not isinstance(metric, kinds):
            raise ConfigError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Union[Gauge, BoundedGauge]:
        factory = Gauge if self.mode == "exact" else BoundedGauge
        return self._get(name, _GAUGE_TYPES, factory)

    def histogram(self, name: str) -> Histogram:
        def factory(metric_name: str) -> Histogram:
            return Histogram(
                metric_name,
                mode=self.mode,
                reservoir_capacity=self.reservoir_capacity,
            )

        return self._get(name, Histogram, factory)

    # -- introspection ------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._metrics)

    def namespaces(self) -> list[str]:
        return sorted({name.split(".", 1)[0] for name in self._metrics})

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def summary(self) -> dict[str, dict[str, dict]]:
        """Nested ``{namespace: {metric: {stat: value}}}`` snapshot.

        The shape is identical in both registry modes, so an exact and
        a bounded registry fed the same event stream can be compared
        key-for-key.
        """
        out: dict[str, dict[str, dict]] = {}
        for name in self.names():
            namespace, short = name.split(".", 1)
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                stats = {"type": "counter", "value": metric.value}
            elif isinstance(metric, _GAUGE_TYPES):
                stats = {
                    "type": "gauge",
                    "last": metric.last,
                    "peak": metric.peak,
                    "mean": metric.mean,
                    "samples": len(metric),
                }
            else:
                rec = metric.recorder
                stats = {
                    "type": "histogram",
                    "count": len(rec),
                    "mean": rec.mean,
                    "p50": rec.p50,
                    "p99": rec.p99,
                    "max": rec.maximum,
                }
            out.setdefault(namespace, {})[short] = stats
        return out
