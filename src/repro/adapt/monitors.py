"""Drift monitors: bounded-memory online change tests over streaming scores.

Each monitor watches one tier's score stream (per-tick mean reconstruction
badness, or windowed detection F1) and emits a
:class:`~repro.adapt.events.DriftEvent` when the stream shifts.  Two tests
are implemented:

* :class:`PageHinkleyMonitor` — the classic Page–Hinkley cumulative-deviation
  test: O(1) memory, sensitive to sustained mean increases;
* :class:`F1FloorMonitor` — a detection-quality floor over the engine's
  windowed confusion blocks: fires when windowed F1 drops below a fraction of
  the baseline established over the first healthy blocks.

Monitors are deliberately free of any retraining logic — they only *observe*
and *signal*; the :class:`~repro.adapt.controller.AdaptationController`
decides what to do with a signal.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.adapt.events import DriftEvent
from repro.exceptions import ConfigurationError

#: Monitor kinds the adapt spec accepts, at most one of each per tier.
MONITOR_KINDS = ("page-hinkley", "f1-floor")


class ScoreMonitor:
    """Base class: consume one score per update, maybe emit a drift event."""

    #: Kind string used in emitted events (set by subclasses).
    kind = "score-monitor"

    def __init__(self, layer: int, tier: str) -> None:
        self.layer = int(layer)
        self.tier = str(tier)

    def update(self, tick: int, value: float) -> Optional[DriftEvent]:
        """Fold one observation in; returns an event when drift is detected."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget all state (called after the tier's detector is swapped)."""
        raise NotImplementedError

    def _event(self, tick: int, statistic: float, threshold: float) -> DriftEvent:
        return DriftEvent(
            tick=int(tick),
            layer=self.layer,
            tier=self.tier,
            monitor=self.kind,
            statistic=float(statistic),
            threshold=float(threshold),
        )


class PageHinkleyMonitor(ScoreMonitor):
    """Page–Hinkley test for a sustained increase of the stream mean.

    Maintains the running mean and the cumulative deviation
    ``m_t = sum(x_i - mean_i - delta)``; drift is signalled when
    ``m_t - min(m_1..m_t)`` exceeds ``threshold``.  ``min_observations``
    updates must accumulate before the test can fire, so the baseline mean
    forms on healthy traffic.
    """

    kind = "page-hinkley"

    def __init__(
        self,
        layer: int,
        tier: str,
        delta: float = 0.005,
        threshold: float = 1.0,
        min_observations: int = 8,
    ) -> None:
        super().__init__(layer, tier)
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        if min_observations < 2:
            raise ConfigurationError(
                f"min_observations must be at least 2, got {min_observations}"
            )
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_observations = int(min_observations)
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.cumulative = 0.0
        self.minimum = 0.0

    def update(self, tick: int, value: float) -> Optional[DriftEvent]:
        value = float(value)
        self.n += 1
        self.mean += (value - self.mean) / self.n
        self.cumulative += value - self.mean - self.delta
        self.minimum = min(self.minimum, self.cumulative)
        statistic = self.cumulative - self.minimum
        if self.n >= self.min_observations and statistic > self.threshold:
            event = self._event(tick, statistic, self.threshold)
            self.reset()
            return event
        return None


class F1FloorMonitor(ScoreMonitor):
    """Detection-quality floor over windowed F1 blocks.

    The first ``baseline_windows`` F1 values establish the healthy baseline
    (their mean); every later block whose F1 falls below
    ``floor_fraction * baseline`` signals drift.  Updates are per *metrics
    window*, not per tick, so this monitor reuses the engine's existing
    windowed confusion blocks.
    """

    kind = "f1-floor"

    def __init__(
        self,
        layer: int,
        tier: str,
        floor_fraction: float = 0.7,
        baseline_windows: int = 2,
    ) -> None:
        super().__init__(layer, tier)
        if not 0.0 < floor_fraction < 1.0:
            raise ConfigurationError(
                f"floor_fraction must lie in (0, 1), got {floor_fraction}"
            )
        if baseline_windows < 1:
            raise ConfigurationError(
                f"baseline_windows must be positive, got {baseline_windows}"
            )
        self.floor_fraction = float(floor_fraction)
        self.baseline_windows = int(baseline_windows)
        self.reset()

    def reset(self) -> None:
        self._baseline_values: List[float] = []
        self.baseline: Optional[float] = None

    def update(self, tick: int, value: float) -> Optional[DriftEvent]:
        value = float(value)
        if self.baseline is None:
            self._baseline_values.append(value)
            if len(self._baseline_values) >= self.baseline_windows:
                self.baseline = float(np.mean(self._baseline_values))
            return None
        floor = self.floor_fraction * self.baseline
        if value < floor:
            event = self._event(tick, value, floor)
            # Keep the baseline: repeated sub-floor blocks keep signalling
            # until the controller's cooldown gives a retrain a chance to land.
            return event
        return None

