"""Statistics utilities: exact and reservoir latency recorders, the
timeline behind exact-mode gauges, and throughput search.
"""

from repro.metrics.stats import (
    DEFAULT_RESERVOIR_CAPACITY,
    LatencyRecorder,
    ReservoirRecorder,
    Timeline,
    find_max_throughput,
    reservoir_rank_error,
)

__all__ = [
    "DEFAULT_RESERVOIR_CAPACITY",
    "LatencyRecorder",
    "ReservoirRecorder",
    "Timeline",
    "find_max_throughput",
    "reservoir_rank_error",
]
