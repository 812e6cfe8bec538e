"""The simulated clock.

The HEC substrate accounts for delay analytically (device execution time plus
network latency); :class:`SimulatedClock` provides the deterministic notion
of time the event-driven HEC simulator advances.  Wall-clock measurements
belong to :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


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

    def reset(self) -> None:
        """Reset the clock to time zero."""
        self.now_ms = 0.0
