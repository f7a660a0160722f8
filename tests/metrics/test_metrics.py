"""Tests for statistics helpers."""

import math

import pytest

from repro.common.errors import ConfigError
from repro.metrics import (
    LatencyRecorder,
    Timeline,
    find_max_throughput,
)


class TestLatencyRecorder:
    def test_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend([float(i) for i in range(1, 101)])
        assert recorder.p50 == pytest.approx(50.5)
        assert recorder.p99 == pytest.approx(99.01)
        assert recorder.mean == pytest.approx(50.5)
        assert recorder.maximum == 100.0

    def test_empty_is_nan(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.p99)
        assert math.isnan(recorder.mean)

    def test_negative_sample_rejected(self):
        with pytest.raises(ConfigError):
            LatencyRecorder().add(-1.0)

    def test_cdf_monotone(self):
        recorder = LatencyRecorder()
        recorder.extend([5.0, 1.0, 3.0, 2.0, 4.0])
        xs, ys = recorder.cdf()
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_cdf_downsamples(self):
        recorder = LatencyRecorder()
        recorder.extend([float(i) for i in range(1000)])
        xs, _ys = recorder.cdf(points=50)
        assert len(xs) == 50

    def test_samples_copy(self):
        recorder = LatencyRecorder()
        recorder.add(1.0)
        samples = recorder.samples
        samples.append(2.0)
        assert len(recorder) == 1


class TestTimeline:
    def test_ordered_samples(self):
        timeline = Timeline()
        timeline.sample(0.0, 10.0)
        timeline.sample(1.0, 20.0)
        assert timeline.peak == 20.0
        assert timeline.mean == 15.0

    def test_out_of_order_rejected(self):
        timeline = Timeline()
        timeline.sample(5.0, 1.0)
        with pytest.raises(ConfigError):
            timeline.sample(4.0, 1.0)


class TestThroughputSearch:
    def test_finds_boundary(self):
        # Sustainable iff rate <= 37.
        found = find_max_throughput(
            lambda rate: rate <= 37.0, low=1.0, high=100.0, tolerance=0.01
        )
        assert found == pytest.approx(37.0, rel=0.05)

    def test_zero_when_even_low_fails(self):
        assert find_max_throughput(lambda _r: False, 1.0, 10.0) == 0.0

    def test_high_when_everything_sustains(self):
        assert find_max_throughput(lambda _r: True, 1.0, 10.0) == 10.0

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            find_max_throughput(lambda _r: True, 10.0, 5.0)
