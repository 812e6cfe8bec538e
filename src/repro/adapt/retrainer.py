"""Online retraining: drift-triggered fine-tuning behind a shadow gate.

:class:`OnlineRetrainer`, given a drift signal, deep-copies the incumbent
detector, fine-tunes it with early stopping on a sample of *clean* windows
(the delayed-label audit stream the F1 monitor already relies on), refits the
scorer on the same windows (recalibrating the detection threshold to the
drifted distribution), and shadow-evaluates candidate vs incumbent on a
labelled holdout sample.  Only a candidate that beats the incumbent's F1 is
handed to the deployer.  Both samples are keyed bottom-k reservoirs
(:class:`~repro.fleet.metrics.DelayReservoir`) the controller keeps per tier.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.adapt.registry import _detector_parts
from repro.detectors.base import AnomalyDetector
from repro.exceptions import ConfigurationError
from repro.evaluation.metrics import confusion_counts, rates_from_confusion


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
        seed: Sequence[int],
    ) -> AnomalyDetector:
        """A candidate: the incumbent deep-copied and fine-tuned on recent data.

        ``fit`` continues from the incumbent's weights (warm start) and refits
        the Gaussian scorer — and thereby the detection threshold — on the
        drifted window sample, which is what recalibrates the false-positive
        rate after a distribution shift.  The incumbent itself is untouched
        and keeps serving traffic until the deployer swaps.

        The copy's model generator (minibatch shuffling, dropout) is reseeded
        in place from ``seed``, so the candidate is a function of the
        incumbent's weights, the windows and ``seed`` — all a resume can
        rebuild — and never of the fits the incumbent's generator went through.
        """
        candidate = copy.deepcopy(incumbent)
        # The model's layers share its generator: reseed that object in place.
        generator = _detector_parts(candidate)[1]._rng
        generator.bit_generator.state = type(generator.bit_generator)(
            np.random.SeedSequence([int(part) % 2**64 for part in seed])
        ).state
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
