"""Live run monitor: periodic heartbeat lines for long streaming runs.

A million-request trace replay runs for many wall-clock minutes with
nothing on the terminal; :class:`RunMonitor` emits one line per
wall-clock interval so the operator can see it is alive and bounded::

    [hb run] sim=812.4s done=40960 (+2048 @ 512/s) rss=58.3MB backlog=37 spooled=3.2M sink=18%

The monitor is deliberately pull-based and cheap: hot paths call
:meth:`tick` (one ``time.monotonic`` compare when the interval has not
elapsed) or fold results through :meth:`wrap`; RSS is read from
``/proc/self/statm`` and sampled only when a heartbeat fires, and the
highest sample is kept as ``peak_rss_bytes``.  ``sink=NN%`` is the
share of wall time since the monitor started that the sinks spent
writing (their ``busy_s``), shown when a sink reports it.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Optional, Sequence

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> int:
    """This process's resident set size right now, in bytes.

    Reads ``/proc/self/statm`` (Linux); falls back to the
    ``getrusage`` high-water mark elsewhere, which only ever grows.
    """
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        # Unix-only module: imported here so ``import repro`` works
        # where it is missing.
        import resource

        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # macOS reports ru_maxrss in bytes, Linux and the BSDs in KiB.
        return maxrss if sys.platform == "darwin" else maxrss * 1024


class RunMonitor:
    """Wall-clock-paced heartbeat + RSS sampler for streaming runs.

    ``interval <= 0`` disables the printed heartbeat but keeps the
    counters and RSS sampling, for a caller that wants only ``done``
    and ``peak_rss_bytes``.
    """

    def __init__(
        self,
        env=None,
        interval: float = 5.0,
        label: str = "run",
        sinks: Sequence = (),
        stream=None,
        now: Callable[[], float] = time.monotonic,
        slo_board=None,
    ) -> None:
        self.env = env
        self.interval = interval
        self.label = label
        self.sinks = list(sinks)
        # Optional repro.telemetry.slo.SloBoard: when set, each beat
        # appends live worst-attainment/burn so an operator sees SLO
        # pressure without waiting for the end-of-run health report.
        self.slo_board = slo_board
        self.stream = stream if stream is not None else sys.stderr
        self._now = now
        self.done = 0
        self.beats = 0
        self.peak_rss_bytes = self.sample_rss()
        self._started = self._now()
        self._last_beat = self._started
        self._last_done = 0

    # -- sampling ------------------------------------------------------------
    def sample_rss(self) -> int:
        rss = current_rss_bytes()
        if rss > getattr(self, "peak_rss_bytes", 0):
            self.peak_rss_bytes = rss
        return rss

    @property
    def event_backlog(self) -> int:
        return sum(getattr(sink, "backlog", 0) for sink in self.sinks)

    @property
    def events_spooled(self) -> int:
        return sum(getattr(sink, "events_handled", 0) for sink in self.sinks)

    # -- heartbeat -----------------------------------------------------------
    def tick(self, done: Optional[int] = None) -> None:
        """Cheap check; emits a heartbeat when the interval elapsed."""
        if done is not None:
            self.done = done
        if self.interval <= 0:
            return
        now = self._now()
        if now - self._last_beat < self.interval:
            return
        self.beat(now)

    def beat(self, now: Optional[float] = None) -> None:
        """Force one heartbeat line (also samples RSS)."""
        now = self._now() if now is None else now
        elapsed = max(now - self._last_beat, 1e-9)
        delta = self.done - self._last_done
        rss = self.sample_rss()
        sim = f"sim={self.env.now:.1f}s " if self.env is not None else ""
        slo = ""
        board = self.slo_board
        if board is not None and board.trackers:
            trackers = board.trackers.values()
            attainment = min(t.attainment for t in trackers)
            burn = max(t.burn_rate for t in trackers)
            slo = f" slo={attainment:.3f} burn={burn:.2f}"
        sink = ""
        busy = [s.busy_s for s in self.sinks if hasattr(s, "busy_s")]
        if busy:
            share = sum(busy) / max(now - self._started, 1e-9)
            sink = f" sink={share:.0%}"
        self.stream.write(
            f"[hb {self.label}] {sim}done={self.done} "
            f"(+{delta} @ {delta / elapsed:.0f}/s) "
            f"rss={rss / 1e6:.1f}MB "
            f"backlog={self.event_backlog} "
            f"spooled={self.events_spooled}"
            f"{sink}{slo}\n"
        )
        self.stream.flush()
        self.beats += 1
        self._last_beat = now
        self._last_done = self.done

    # -- composition ---------------------------------------------------------
    def wrap(self, result_sink: Optional[Callable] = None) -> Callable:
        """A result-sink callable: fold into *result_sink*, then tick.

        Lets the monitor ride the platform's result-retirement path::

            platform.result_sink = monitor.wrap(aggregator)
        """

        def observe(result) -> None:
            if result_sink is not None:
                result_sink(result)
            self.done += 1
            self.tick()

        return observe
