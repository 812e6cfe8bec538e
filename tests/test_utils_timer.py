"""Tests for repro.utils.timer."""

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.timer import SimulatedClock


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

    def test_reset(self):
        clock = SimulatedClock()
        clock.advance(5.0)
        clock.reset()
        assert clock.now_ms == 0.0
