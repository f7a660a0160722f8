"""Function pre-warming (paper §5, SHEPHERD-style).

A cold start pays container startup plus model loading over PCIe; a
pre-warmed instance pays neither.  The manager keeps instances warm for
a window after their last use (the same interval-histogram idea the
elastic storage uses) and reports cold-start penalties for instances
invoked outside their window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GB, MS

CONTAINER_START_LATENCY = 80 * MS
# Model weights stream from host over one PCIe link on a cold start.
DEFAULT_LOAD_BANDWIDTH = 12 * GB


@dataclass
class WarmState:
    last_used: float
    keep_alive: float

    def is_warm(self, now: float) -> bool:
        return now - self.last_used <= self.keep_alive


class PrewarmManager:
    """Tracks per-instance warmth and computes cold-start penalties."""

    def __init__(
        self,
        keep_alive: float = 60.0,
        load_bandwidth: float = DEFAULT_LOAD_BANDWIDTH,
        container_start: float = CONTAINER_START_LATENCY,
    ) -> None:
        self.keep_alive = keep_alive
        self.load_bandwidth = load_bandwidth
        self.container_start = container_start
        self._states: dict[str, WarmState] = {}
        self.cold_starts = 0
        self.warm_hits = 0

    def prewarm(self, instance_id: str, now: float) -> None:
        """Mark an instance warm (deploy-time pre-warming)."""
        self._states[instance_id] = WarmState(now, self.keep_alive)

    def startup_penalty(
        self, instance_id: str, now: float, model_bytes: float
    ) -> float:
        """Latency to pay before this invocation can execute."""
        state = self._states.get(instance_id)
        if state is not None and state.is_warm(now):
            self.warm_hits += 1
            state.last_used = now
            return 0.0
        self.cold_starts += 1
        self._states[instance_id] = WarmState(now, self.keep_alive)
        return self.container_start + model_bytes / self.load_bandwidth

    def is_warm(self, instance_id: str, now: float) -> bool:
        state = self._states.get(instance_id)
        return state is not None and state.is_warm(now)
