"""Synthetic Azure-Functions-style request traces."""

from repro.traces.azure import (
    PATTERNS,
    ArrivalStream,
    Trace,
    TraceConfig,
    generate_arrivals,
    iter_arrivals,
    make_trace,
    stream_trace,
)

__all__ = [
    "PATTERNS",
    "ArrivalStream",
    "Trace",
    "TraceConfig",
    "generate_arrivals",
    "iter_arrivals",
    "make_trace",
    "stream_trace",
]
