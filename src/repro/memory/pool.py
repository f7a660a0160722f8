"""GPU storage memory pools (paper §4.4.1).

A pool pre-reserves device memory so Put() avoids millisecond-scale
``cudaMalloc`` calls.  Two behaviours are modelled:

- **static** pools (PyTorch-style, the baselines): grow on demand and
  never shrink until manually reclaimed — this is the "4x more memory
  than actual demand" failure mode the paper measures.
- **elastic** pools (GROUTER): an :class:`ElasticPoolManager` (see
  :mod:`repro.memory.elastic`) continuously trims the reservation to the
  histogram-predicted demand, with a floor for bursts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.errors import AllocationError
from repro.memory.device import AllocationCostModel, DeviceMemory
from repro.sim.core import Environment, Process
from repro.telemetry.events import PoolAlloc, PoolFree, PoolTrim

POOL_TAG = "storage-pool"


@dataclass
class PoolAllocation:
    """A byte range handed out by a pool (no addresses, just accounting)."""

    alloc_id: int
    size: float
    pool: "MemoryPool"
    freed: bool = False


class MemoryPool:
    """A reservation-backed allocator on one GPU.

    ``alloc``/``free`` are simulation processes because growing the
    reservation costs real (simulated) time.
    """

    _ids = itertools.count()

    def __init__(
        self,
        env: Environment,
        device: DeviceMemory,
        cost_model: AllocationCostModel | None = None,
        tag: str = POOL_TAG,
    ) -> None:
        self.env = env
        self.device = device
        self.cost_model = cost_model if cost_model is not None else AllocationCostModel()
        self.tag = tag
        self._reserved = 0.0
        self._in_use = 0.0
        self.peak_reserved = 0.0
        self.grow_count = 0

    # -- accounting -------------------------------------------------------
    @property
    def reserved(self) -> float:
        """Bytes currently reserved from the device."""
        return self._reserved

    @property
    def in_use(self) -> float:
        """Bytes currently handed out to allocations."""
        return self._in_use

    @property
    def idle_reserved(self) -> float:
        """Reserved but unallocated bytes (pooling headroom)."""
        return self._reserved - self._in_use

    # -- allocation --------------------------------------------------------
    def alloc(self, size: float) -> Process:
        """Allocate *size* bytes; returns a process yielding PoolAllocation."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive: {size}")
        return self.env.process(self._alloc(size))

    def _alloc(self, size: float):
        requested_at = self.env.now
        grew = self.idle_reserved < size
        if not grew:
            yield self.env.timeout(self.cost_model.pool_hit)
        else:
            growth = size - self.idle_reserved
            # Device reservation happens immediately (so concurrent
            # allocs see a consistent view); the latency follows.
            self.device.reserve(self.tag, growth)
            self._reserved += growth
            self.grow_count += 1
            self.peak_reserved = max(self.peak_reserved, self._reserved)
            yield self.env.timeout(self.cost_model.malloc_latency(growth))
        self._in_use += size
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(PoolAlloc(
                self.env.now, self.device.device_id, size, self._reserved,
                self._in_use, grew, requested_at,
            ))
        return PoolAllocation(next(MemoryPool._ids), size, self)

    def free(self, allocation: PoolAllocation) -> None:
        """Return an allocation to the pool (reservation is kept)."""
        if allocation.pool is not self:
            raise AllocationError("free() of a foreign allocation")
        if allocation.freed:
            raise AllocationError(f"double free of allocation {allocation.alloc_id}")
        allocation.freed = True
        self._in_use -= allocation.size
        if self._in_use < -1e-6:
            raise AllocationError("pool in_use went negative")
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(PoolFree(
                self.env.now, self.device.device_id, allocation.size,
                self._reserved, self._in_use,
            ))

    def prewarm(self, size: float) -> None:
        """Reserve *size* bytes up front with no simulated latency.

        Models deploy-time pre-reservation: both the baselines' static
        pools and GROUTER's 300 MB idle floor are in place before the
        first request arrives.
        """
        if size <= 0:
            return
        growth = size - self.idle_reserved
        if growth <= 0:
            return
        self.device.reserve(self.tag, growth)
        self._reserved += growth
        self.peak_reserved = max(self.peak_reserved, self._reserved)

    # -- trimming ---------------------------------------------------------
    def trim(self, target_reserved: float) -> Process:
        """Shrink the reservation toward *target* (never below in_use)."""
        return self.env.process(self._trim(target_reserved))

    def _trim(self, target_reserved: float):
        floor = max(target_reserved, self._in_use)
        excess = self._reserved - floor
        if excess <= 0:
            return 0.0
        self.device.release(self.tag, excess)
        self._reserved -= excess
        yield self.env.timeout(self.cost_model.free_latency(excess))
        bus = self.env.telemetry
        if bus is not None:
            bus.publish(PoolTrim(
                self.env.now, self.device.device_id, excess, self._reserved,
                self._in_use,
            ))
        return excess

    def reclaim_all(self) -> Process:
        """Release every idle reserved byte (PyTorch empty_cache style)."""
        return self.trim(0.0)

    def __repr__(self) -> str:
        return (
            f"<MemoryPool {self.device.device_id} reserved={self._reserved:.0f} "
            f"in_use={self._in_use:.0f}>"
        )
