"""Tests for the drift monitors (repro.adapt.monitors) and adapt events."""

import numpy as np
import pytest

from repro.adapt.events import AdaptationTimeline
from repro.adapt.monitors import (
    MONITOR_KINDS,
    F1FloorMonitor,
    PageHinkleyMonitor,
    build_monitor,
)
from repro.exceptions import ConfigurationError


def _drive(monitor, values, start_tick=0):
    """Feed a sequence; return the list of (tick, event) that fired."""
    events = []
    for offset, value in enumerate(values):
        event = monitor.update(start_tick + offset, value)
        if event is not None:
            events.append(event)
    return events


class TestPageHinkley:
    def test_stable_stream_never_fires(self):
        monitor = PageHinkleyMonitor(0, "iot", delta=0.01, threshold=1.0)
        rng = np.random.default_rng(0)
        events = _drive(monitor, 2.0 + 0.05 * rng.standard_normal(200))
        assert events == []

    def test_sustained_mean_shift_fires(self):
        monitor = PageHinkleyMonitor(1, "edge", delta=0.01, threshold=1.0)
        stream = [1.0] * 20 + [1.5] * 30
        events = _drive(monitor, stream)
        assert len(events) >= 1
        event = events[0]
        assert event.monitor == "page-hinkley"
        assert event.layer == 1 and event.tier == "edge"
        assert event.statistic > event.threshold
        assert event.tick >= 20  # fires after the shift, not before

    def test_resets_after_firing(self):
        monitor = PageHinkleyMonitor(0, "iot", delta=0.0, threshold=0.5)
        _drive(monitor, [0.0] * 10 + [2.0] * 10)
        assert monitor.n < 20  # state was reset at the firing point

    def test_min_observations_gate(self):
        monitor = PageHinkleyMonitor(0, "iot", threshold=0.1, min_observations=50)
        assert _drive(monitor, [0.0] * 10 + [5.0] * 10) == []

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PageHinkleyMonitor(0, "iot", threshold=0.0)
        with pytest.raises(ConfigurationError):
            PageHinkleyMonitor(0, "iot", min_observations=1)


class TestF1Floor:
    def test_needs_baseline_before_firing(self):
        monitor = F1FloorMonitor(2, "cloud", floor_fraction=0.7, baseline_windows=2)
        assert monitor.update(3, 0.1) is None  # first value only builds baseline
        assert monitor.baseline is None

    def test_fires_below_floor(self):
        monitor = F1FloorMonitor(2, "cloud", floor_fraction=0.7, baseline_windows=2)
        assert monitor.update(3, 0.9) is None
        assert monitor.update(7, 0.9) is None
        assert monitor.baseline == pytest.approx(0.9)
        assert monitor.update(11, 0.8) is None  # above the 0.63 floor
        event = monitor.update(15, 0.5)
        assert event is not None and event.monitor == "f1-floor"
        assert event.statistic == pytest.approx(0.5)
        assert event.threshold == pytest.approx(0.63)

    def test_reset_clears_baseline(self):
        monitor = F1FloorMonitor(0, "iot")
        monitor.update(0, 1.0)
        monitor.update(1, 1.0)
        monitor.reset()
        assert monitor.baseline is None

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            F1FloorMonitor(0, "iot", floor_fraction=1.0)
        with pytest.raises(ConfigurationError):
            F1FloorMonitor(0, "iot", baseline_windows=0)


class TestBuildMonitor:
    @pytest.mark.parametrize("kind", MONITOR_KINDS)
    def test_builds_every_kind(self, kind):
        monitor = build_monitor(kind, 1, "edge")
        assert monitor.kind == kind
        assert monitor.layer == 1 and monitor.tier == "edge"

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            build_monitor("cusum", 0, "iot")


class TestTimeline:
    def test_empty_timeline_round_trips(self):
        assert AdaptationTimeline.from_dict({}) == AdaptationTimeline()
