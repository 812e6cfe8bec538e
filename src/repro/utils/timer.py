"""Timing utilities: a wall-clock timer and a simulated clock.

The HEC substrate accounts for delay analytically (device execution time plus
network latency), but several components also need real wall-clock
measurements (e.g. the benchmarks measuring inference time of the NumPy
models).  :class:`WallClockTimer` covers the latter; :class:`SimulatedClock`
provides a deterministic notion of time for the event-driven HEC simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError


class WallClockTimer:
    """Context-manager timer measuring elapsed wall-clock time in milliseconds."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed_ms: float = 0.0

    def __enter__(self) -> "WallClockTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is not None:
            self.elapsed_ms = (time.perf_counter() - self._start) * 1000.0
            self._start = None

    def start(self) -> None:
        """Start (or restart) the timer."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the timer and return the elapsed time in milliseconds."""
        if self._start is None:
            raise ConfigurationError("timer was stopped without being started")
        self.elapsed_ms = (time.perf_counter() - self._start) * 1000.0
        self._start = None
        return self.elapsed_ms


@dataclass
class SimulatedClock:
    """A simple monotonically advancing simulated clock (milliseconds).

    The clock never observes wall-clock time; it only advances when told to.
    This keeps the HEC simulator fully deterministic.
    """

    now_ms: float = 0.0

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` (must be non-negative) and return the new time."""
        if delta_ms < 0:
            raise ConfigurationError(f"cannot advance clock by a negative amount ({delta_ms})")
        self.now_ms += float(delta_ms)
        return self.now_ms

    def advance_to(self, timestamp_ms: float) -> float:
        """Advance the clock to ``timestamp_ms`` if it is in the future; otherwise no-op."""
        if timestamp_ms > self.now_ms:
            self.now_ms = float(timestamp_ms)
        return self.now_ms

    def reset(self) -> None:
        """Reset the clock to time zero."""
        self.now_ms = 0.0
