"""Tests for repro.utils.timer."""

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.timer import SimulatedClock, WallClockTimer


class TestWallClockTimer:
    def test_context_manager_measures_elapsed(self):
        with WallClockTimer() as timer:
            sum(range(1000))
        assert timer.elapsed_ms >= 0.0

    def test_start_stop(self):
        timer = WallClockTimer()
        timer.start()
        elapsed = timer.stop()
        assert elapsed >= 0.0
        assert timer.elapsed_ms == elapsed

    def test_stop_without_start_raises(self):
        with pytest.raises(ConfigurationError):
            WallClockTimer().stop()


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now_ms == 0.0

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(10.0)
        clock.advance(5.5)
        assert clock.now_ms == pytest.approx(15.5)

    def test_advance_negative_raises(self):
        with pytest.raises(ConfigurationError):
            SimulatedClock().advance(-1.0)

    def test_advance_to_future(self):
        clock = SimulatedClock()
        clock.advance_to(100.0)
        assert clock.now_ms == 100.0

    def test_advance_to_past_is_noop(self):
        clock = SimulatedClock()
        clock.advance(50.0)
        clock.advance_to(10.0)
        assert clock.now_ms == 50.0

    def test_reset(self):
        clock = SimulatedClock()
        clock.advance(5.0)
        clock.reset()
        assert clock.now_ms == 0.0
