"""Deterministic discrete-event simulation kernel."""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    ScheduledCall,
    Timeout,
)
from repro.sim.resources import Container, Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "ScheduledCall",
    "Timeout",
    "Container",
    "Request",
    "Resource",
    "Store",
]
