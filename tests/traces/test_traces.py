"""Tests for the Azure-style trace generators."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.traces import TraceConfig, make_trace


class TestConfigValidation:
    def test_unknown_pattern(self):
        with pytest.raises(ConfigError):
            TraceConfig(pattern="diurnal", rate=1.0, duration=10.0)

    def test_non_positive_rate(self):
        with pytest.raises(ConfigError):
            TraceConfig(pattern="sporadic", rate=0.0, duration=10.0)

    def test_bad_amplitude(self):
        with pytest.raises(ConfigError):
            TraceConfig(
                pattern="periodic", rate=1.0, duration=10.0, amplitude=2.0
            )

    def test_bad_burst_fraction(self):
        with pytest.raises(ConfigError):
            TraceConfig(
                pattern="bursty", rate=1.0, duration=10.0, burst_fraction=1.0
            )


class TestPatterns:
    def test_sporadic_rate_approximately_respected(self):
        trace = make_trace("sporadic", rate=20.0, duration=100.0, seed=1)
        assert trace.mean_rate == pytest.approx(20.0, rel=0.2)

    def test_periodic_rate_approximately_respected(self):
        trace = make_trace("periodic", rate=20.0, duration=120.0, seed=1)
        assert trace.mean_rate == pytest.approx(20.0, rel=0.25)

    def test_bursty_rate_approximately_respected(self):
        trace = make_trace("bursty", rate=20.0, duration=200.0, seed=1)
        assert trace.mean_rate == pytest.approx(20.0, rel=0.3)

    def test_bursty_is_burstier_than_sporadic(self):
        # Squared coefficient of variation of inter-arrivals: Poisson
        # ~1, on/off-modulated substantially above.
        def cv2(trace):
            gaps = np.diff(trace.arrivals)
            return float(np.var(gaps) / np.mean(gaps) ** 2)

        sporadic = make_trace("sporadic", rate=10.0, duration=300.0, seed=3)
        bursty = make_trace("bursty", rate=10.0, duration=300.0, seed=3)
        assert cv2(bursty) > cv2(sporadic)

    def test_retry_guarantees_non_empty_when_expected(self):
        # Seeds that land in an off phase get re-rolled.
        for seed in range(20):
            trace = make_trace("bursty", rate=2.0, duration=6.0, seed=seed)
            assert len(trace) > 0


class TestTraceObject:
    def test_iteration_matches_arrivals(self):
        trace = make_trace("sporadic", rate=5.0, duration=10.0, seed=7)
        assert list(trace) == trace.arrivals.tolist()

    def test_scaled_compresses_time(self):
        trace = make_trace("sporadic", rate=5.0, duration=10.0, seed=7)
        fast = trace.scaled(2.0)
        assert len(fast) == len(trace)
        assert fast.arrivals[-1] == pytest.approx(trace.arrivals[-1] / 2)

    def test_scaled_invalid_factor(self):
        trace = make_trace("sporadic", rate=5.0, duration=10.0, seed=7)
        with pytest.raises(ConfigError):
            trace.scaled(0.0)
