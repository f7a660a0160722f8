"""Deterministic discrete-event simulation kernel."""

from repro.sim.core import (
    AllOf,
    Environment,
    Event,
    Process,
    ScheduledCall,
    Timeout,
)
from repro.sim.resources import Container, Request, Resource

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "ScheduledCall",
    "Timeout",
    "Container",
    "Request",
    "Resource",
]
