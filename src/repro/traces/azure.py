"""Azure-Functions-style request arrival generation (paper §6, [39]).

The production trace the paper replays exhibits three characteristic
arrival patterns; we generate each synthetically with a seeded RNG:

- **sporadic**: a homogeneous Poisson process at a low rate;
- **periodic**: a non-homogeneous Poisson process whose rate follows a
  sinusoid (diurnal-style waves), sampled by thinning;
- **bursty**: an on/off modulated Poisson process — short bursts at a
  multiple of the base rate separated by near-idle gaps.

All generators return sorted arrival times in seconds within
``[0, duration)`` and are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.common.errors import ConfigError

PATTERNS = ("sporadic", "periodic", "bursty")


@dataclass(frozen=True)
class TraceConfig:
    """Parameters for synthetic trace generation."""

    pattern: str
    rate: float  # mean requests per second
    duration: float  # seconds
    seed: int = 0
    # periodic pattern:
    period: float = 60.0
    amplitude: float = 0.8  # fraction of rate swung by the sinusoid
    # bursty pattern:
    burst_factor: float = 5.0  # rate multiplier during a burst
    burst_fraction: float = 0.2  # fraction of time spent bursting
    mean_burst_len: float = 1.0  # seconds

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ConfigError(
                f"unknown pattern {self.pattern!r}; choose from {PATTERNS}"
            )
        if self.rate <= 0 or self.duration <= 0:
            raise ConfigError("rate and duration must be positive")
        if not 0 <= self.amplitude <= 1:
            raise ConfigError("amplitude must be in [0, 1]")
        if not 0 < self.burst_fraction < 1:
            raise ConfigError("burst_fraction must be in (0, 1)")


def _poisson_arrivals(rng: np.random.Generator, rate: float,
                      duration: float) -> np.ndarray:
    count = rng.poisson(rate * duration)
    return np.sort(rng.uniform(0.0, duration, size=count))


def _periodic_arrivals(rng: np.random.Generator, cfg: TraceConfig) -> np.ndarray:
    peak = cfg.rate * (1 + cfg.amplitude)
    candidates = _poisson_arrivals(rng, peak, cfg.duration)
    phase = 2 * np.pi * candidates / cfg.period
    instantaneous = cfg.rate * (1 + cfg.amplitude * np.sin(phase))
    keep = rng.uniform(0.0, peak, size=candidates.size) < instantaneous
    return candidates[keep]


def _bursty_arrivals(rng: np.random.Generator, cfg: TraceConfig) -> np.ndarray:
    # Choose on/off rates so the long-run mean equals cfg.rate.  A floor
    # keeps the off phase trickling (and short traces non-empty): if the
    # requested burst_factor would starve the off phase, rebalance.
    off_weight = 1 - cfg.burst_fraction
    on_rate = cfg.rate * cfg.burst_factor
    off_rate = (cfg.rate - cfg.burst_fraction * on_rate) / off_weight
    floor = 0.1 * cfg.rate
    if off_rate < floor:
        off_rate = floor
        on_rate = (cfg.rate - off_weight * off_rate) / cfg.burst_fraction
    mean_off_len = cfg.mean_burst_len * off_weight / cfg.burst_fraction
    arrivals: list[float] = []
    t = 0.0
    bursting = rng.uniform() < cfg.burst_fraction
    while t < cfg.duration:
        span = rng.exponential(
            cfg.mean_burst_len if bursting else mean_off_len
        )
        span = min(span, cfg.duration - t)
        rate = on_rate if bursting else off_rate
        if rate > 0 and span > 0:
            arrivals.extend(t + _poisson_arrivals(rng, rate, span))
        t += span
        bursting = not bursting
    return np.sort(np.asarray(arrivals))


def generate_arrivals(cfg: TraceConfig) -> np.ndarray:
    """Arrival times for *cfg*, sorted, deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.pattern == "sporadic":
        return _poisson_arrivals(rng, cfg.rate, cfg.duration)
    if cfg.pattern == "periodic":
        return _periodic_arrivals(rng, cfg)
    return _bursty_arrivals(rng, cfg)


# -- streaming generation ------------------------------------------------------

def _iter_poisson(rng: np.random.Generator, rate: float, start: float,
                  end: float) -> Iterator[float]:
    """Homogeneous Poisson arrivals in [start, end) via exponential gaps."""
    if rate <= 0:
        return
    t = start + float(rng.exponential(1.0 / rate))
    while t < end:
        yield t
        t += float(rng.exponential(1.0 / rate))


def _iter_periodic(rng: np.random.Generator, cfg: TraceConfig) -> Iterator[float]:
    """Sinusoid-modulated Poisson by thinning a peak-rate stream."""
    peak = cfg.rate * (1 + cfg.amplitude)
    for t in _iter_poisson(rng, peak, 0.0, cfg.duration):
        instantaneous = cfg.rate * (
            1 + cfg.amplitude * np.sin(2 * np.pi * t / cfg.period)
        )
        if rng.uniform(0.0, peak) < instantaneous:
            yield t


def _iter_bursty(rng: np.random.Generator, cfg: TraceConfig) -> Iterator[float]:
    """On/off modulated Poisson, one phase at a time (same rate balance
    as :func:`_bursty_arrivals`)."""
    off_weight = 1 - cfg.burst_fraction
    on_rate = cfg.rate * cfg.burst_factor
    off_rate = (cfg.rate - cfg.burst_fraction * on_rate) / off_weight
    floor = 0.1 * cfg.rate
    if off_rate < floor:
        off_rate = floor
        on_rate = (cfg.rate - off_weight * off_rate) / cfg.burst_fraction
    mean_off_len = cfg.mean_burst_len * off_weight / cfg.burst_fraction
    t = 0.0
    bursting = rng.uniform() < cfg.burst_fraction
    while t < cfg.duration:
        span = rng.exponential(
            cfg.mean_burst_len if bursting else mean_off_len
        )
        span = min(span, cfg.duration - t)
        rate = on_rate if bursting else off_rate
        if rate > 0 and span > 0:
            yield from _iter_poisson(rng, rate, t, t + span)
        t += span
        bursting = not bursting


def iter_arrivals(cfg: TraceConfig) -> Iterator[float]:
    """Yield sorted arrival times one at a time in O(1) memory.

    Deterministic per seed, like :func:`generate_arrivals`, but drawn
    incrementally (exponential inter-arrival gaps instead of
    count-then-sort), so the stream's samples differ from the
    materialized array while following the identical arrival process.
    Use this for trace runs too large to hold an arrival array.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.pattern == "sporadic":
        yield from _iter_poisson(rng, cfg.rate, 0.0, cfg.duration)
    elif cfg.pattern == "periodic":
        yield from _iter_periodic(rng, cfg)
    else:
        yield from _iter_bursty(rng, cfg)


@dataclass(frozen=True)
class ArrivalStream:
    """A generator-backed trace: no materialized arrival array.

    Duck-compatible with :class:`Trace` where replay only needs
    iteration plus ``config`` (``ServerlessPlatform.run_trace`` and
    ``run_trace_streaming`` both qualify).  ``limit`` caps the number
    of arrivals yielded, which is how the end-to-end benchmarks pin an
    exact request count.  Iterating twice restarts the same
    deterministic stream.
    """

    config: TraceConfig
    limit: Optional[int] = None

    def __iter__(self) -> Iterator[float]:
        import itertools

        arrivals = iter_arrivals(self.config)
        if self.limit is None:
            return arrivals
        return itertools.islice(arrivals, self.limit)

    @property
    def mean_rate(self) -> float:
        return self.config.rate


def stream_trace(pattern: str, rate: float, duration: float, seed: int = 0,
                 limit: Optional[int] = None, **kwargs) -> ArrivalStream:
    """Streaming counterpart of :func:`make_trace`."""
    return ArrivalStream(
        config=TraceConfig(
            pattern=pattern, rate=rate, duration=duration, seed=seed, **kwargs
        ),
        limit=limit,
    )


@dataclass
class Trace:
    """A materialized trace: sorted arrival times plus its config."""

    config: TraceConfig
    arrivals: np.ndarray = field(default_factory=lambda: np.array([]))

    @classmethod
    def generate(cls, config: TraceConfig) -> "Trace":
        arrivals = generate_arrivals(config)
        # An unlucky seed can land entirely in an off phase; retry with
        # derived seeds so callers always get a usable trace when one is
        # statistically expected.
        retry = 0
        while arrivals.size == 0 and config.rate * config.duration >= 1 and retry < 5:
            retry += 1
            bumped = TraceConfig(
                pattern=config.pattern,
                rate=config.rate,
                duration=config.duration,
                seed=config.seed + 1000 * retry,
                period=config.period,
                amplitude=config.amplitude,
                burst_factor=config.burst_factor,
                burst_fraction=config.burst_fraction,
                mean_burst_len=config.mean_burst_len,
            )
            arrivals = generate_arrivals(bumped)
        return cls(config=config, arrivals=arrivals)

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[float]:
        return iter(self.arrivals.tolist())

    def scaled(self, factor: float) -> "Trace":
        """Time-compress (factor > 1 speeds up) keeping the same count."""
        if factor <= 0:
            raise ConfigError("scale factor must be positive")
        return Trace(config=self.config, arrivals=self.arrivals / factor)

    @property
    def mean_rate(self) -> float:
        if self.config.duration == 0:
            return 0.0
        return len(self.arrivals) / self.config.duration


def make_trace(pattern: str, rate: float, duration: float, seed: int = 0,
               **kwargs) -> Trace:
    """Convenience constructor for the three evaluation patterns."""
    return Trace.generate(
        TraceConfig(
            pattern=pattern, rate=rate, duration=duration, seed=seed, **kwargs
        )
    )
