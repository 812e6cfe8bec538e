"""Online retraining: drift-triggered fine-tuning behind a shadow gate.

Two pieces live here:

* :class:`WindowReservoir` — a bounded uniform sample (Vitter's algorithm R)
  over a stream of windows, optionally keeping labels.  The retrainer feeds
  one reservoir per tier with recent *clean* windows (the delayed-label audit
  stream the F1 monitor already relies on) and a labelled holdout reservoir
  for gate evaluation.
* :class:`OnlineRetrainer` — given a drift signal, deep-copies the incumbent
  detector, fine-tunes it on the reservoir snapshot with early stopping,
  refits the scorer on the same recent windows (recalibrating the detection
  threshold to the drifted distribution), and shadow-evaluates candidate vs
  incumbent on the held-out labelled slice.  Only a candidate that beats the
  incumbent's F1 is handed to the deployer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.exceptions import ConfigurationError
from repro.evaluation.metrics import confusion_counts, rates_from_confusion


class WindowReservoir:
    """Bounded uniform sample of a window stream (algorithm R), with labels."""

    def __init__(self, capacity: int, seed_entropy: Sequence[int]) -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"reservoir capacity must be positive, got {capacity}"
            )
        self.capacity = int(capacity)
        self.windows: List[np.ndarray] = []
        self.labels: List[int] = []
        self.seen = 0
        self._rng = np.random.default_rng(
            np.random.SeedSequence([int(e) & 0xFFFFFFFF for e in seed_entropy])
        )

    def __len__(self) -> int:
        return len(self.windows)

    def add(self, window: np.ndarray, label: int = 0) -> None:
        """Offer one window (with its label) to the reservoir."""
        self.seen += 1
        if len(self.windows) < self.capacity:
            self.windows.append(np.asarray(window, dtype=float))
            self.labels.append(int(label))
            return
        slot = int(self._rng.integers(self.seen))
        if slot < self.capacity:
            self.windows[slot] = np.asarray(window, dtype=float)
            self.labels[slot] = int(label)

    def extend(self, windows: np.ndarray, labels: Sequence[int]) -> None:
        """Offer a batch of windows in order."""
        for window, label in zip(windows, labels):
            self.add(window, label)

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sampled (windows, labels) arrays, in reservoir slot order."""
        if not self.windows:
            raise ConfigurationError("cannot snapshot an empty reservoir")
        return np.stack(self.windows), np.asarray(self.labels, dtype=int)


def detection_f1(detector: AnomalyDetector, windows: np.ndarray,
                 labels: np.ndarray) -> float:
    """Windowed detection F1 of ``detector`` on a labelled holdout slice."""
    predictions = detector.predict(windows)
    return rates_from_confusion(confusion_counts(predictions, labels))["f1"]


@dataclass
class RetrainOutcome:
    """What one fine-tuning attempt produced."""

    candidate: AnomalyDetector
    incumbent_f1: float
    candidate_f1: float
    accepted: bool
    n_train_windows: int
    n_holdout_windows: int


class OnlineRetrainer:
    """Fine-tune an incumbent detector on recent clean windows, behind a gate."""

    def __init__(
        self,
        epochs: int = 5,
        batch_size: int = 16,
        learning_rate: float = 1e-3,
        min_improvement: float = 0.0,
    ) -> None:
        if epochs <= 0 or batch_size <= 0:
            raise ConfigurationError(
                f"epochs and batch_size must be positive, got {epochs}/{batch_size}"
            )
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.min_improvement = float(min_improvement)

    def fine_tune(
        self,
        incumbent: AnomalyDetector,
        train_windows: np.ndarray,
    ) -> AnomalyDetector:
        """A candidate: the incumbent deep-copied and fine-tuned on recent data.

        ``fit`` continues from the incumbent's weights (warm start) and refits
        the Gaussian scorer — and thereby the detection threshold — on the
        drifted window sample, which is what recalibrates the false-positive
        rate after a distribution shift.  The incumbent itself is untouched
        and keeps serving traffic until the deployer swaps.
        """
        candidate = copy.deepcopy(incumbent)
        candidate.fit(
            np.asarray(train_windows, dtype=float),
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            early_stopping_patience=2,
        )
        return candidate

    def evaluate(
        self,
        candidate: AnomalyDetector,
        incumbent: AnomalyDetector,
        holdout_windows: np.ndarray,
        holdout_labels: np.ndarray,
        n_train_windows: int = 0,
    ) -> RetrainOutcome:
        """The shadow gate: score both models on the labelled holdout slice.

        ``candidate`` must already be in its *deployable* form — the
        controller FP16-quantises it before calling this, so the gate judges
        exactly the model that would serve traffic, not a higher-precision
        sibling of it.
        """
        incumbent_f1 = detection_f1(incumbent, holdout_windows, holdout_labels)
        candidate_f1 = detection_f1(candidate, holdout_windows, holdout_labels)
        return RetrainOutcome(
            candidate=candidate,
            incumbent_f1=incumbent_f1,
            candidate_f1=candidate_f1,
            accepted=candidate_f1 > incumbent_f1 + self.min_improvement,
            n_train_windows=int(n_train_windows),
            n_holdout_windows=int(np.asarray(holdout_windows).shape[0]),
        )
