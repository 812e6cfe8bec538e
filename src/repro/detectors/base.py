"""The one reconstruction detector both families share.

Section II-A of the paper gives the autoencoder and the seq2seq families one
recipe: train a model to reconstruct normal windows with MSE, fit a Gaussian to
the per-point reconstruction errors, score points by logPD and threshold at
the training minimum.  :class:`AnomalyDetector` writes that recipe once —
``fit``, the logPD matrix, ``detect``/``detect_arrays``/``predict`` and the
parameter count — and a family subclass only builds its model and supplies
``_check_windows``, ``reconstruct``, ``n_channels`` and its ``OPTIMIZER``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.detectors.confidence import ConfidencePolicy
from repro.detectors.scoring import GaussianLogPDScorer
from repro.exceptions import NotFittedError


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of running one detector on one window.

    Attributes
    ----------
    is_anomaly:
        The binary prediction (True = anomalous window).
    confident:
        Whether the detection satisfies one of the paper's confidence rules
        (used by the Successive scheme to decide whether to stop escalating).
    anomaly_score:
        The window-level anomaly score (the minimum per-timestep logPD; lower
        means more anomalous).
    point_scores:
        Per-timestep logPD scores within the window.
    anomalous_point_fraction:
        Fraction of timesteps whose logPD falls below the detection threshold.
    """

    is_anomaly: bool
    confident: bool
    anomaly_score: float
    point_scores: np.ndarray
    anomalous_point_fraction: float


def arrays_from_point_scores(
    point_scores: np.ndarray,
    threshold: float,
    confidence,
    with_confidence: bool = True,
) -> tuple:
    """``(is_anomaly, confident, window_scores, fractions)`` arrays for a batch.

    The columnar tail of detection: the detection and confidence rules are
    applied to the whole ``(n_windows, n_points)`` logPD matrix at once and
    the per-window summaries come back as aligned arrays — no
    :class:`DetectionResult` objects.  :func:`results_from_point_scores` (and
    through it every detector's ``detect``) is a thin boxing layer over this.

    ``with_confidence=False`` skips the confidence rules (and the fraction
    pass) entirely, returning ``None`` in their slots — the streaming fast
    path never consults them, and the detection rule itself
    (any point's logPD strictly below the threshold) is unchanged.
    """
    point_scores = np.asarray(point_scores, dtype=float)
    if not with_confidence:
        # Same detection rule as ConfidencePolicy.evaluate_batch, minus the
        # strong-score and anomalous-fraction passes nobody will read.
        is_anomaly = (point_scores < threshold).any(axis=1)
        return is_anomaly, None, point_scores.min(axis=1), None
    is_anomaly, confident, fractions = confidence.evaluate_batch(point_scores, threshold)
    return (
        np.asarray(is_anomaly, dtype=bool),
        np.asarray(confident, dtype=bool),
        point_scores.min(axis=1),
        np.asarray(fractions, dtype=float),
    )


def results_from_point_scores(
    point_scores: np.ndarray,
    threshold: float,
    confidence,
) -> List["DetectionResult"]:
    """Fan one ``(n_windows, n_points)`` logPD matrix out into per-window results.

    The detection and confidence rules are applied to all windows at once via
    :meth:`~repro.detectors.confidence.ConfidencePolicy.evaluate_batch`; only
    the per-window :class:`DetectionResult` construction remains a loop.  This
    is the shared tail of every detector's batched ``detect``.
    """
    point_scores = np.asarray(point_scores, dtype=float)
    is_anomaly, confident, window_scores, fractions = arrays_from_point_scores(
        point_scores, threshold, confidence
    )
    return [
        DetectionResult(
            is_anomaly=bool(anomaly),
            confident=bool(conf),
            anomaly_score=float(score),
            point_scores=scores,
            anomalous_point_fraction=float(fraction),
        )
        for anomaly, conf, score, scores, fraction in zip(
            is_anomaly, confident, window_scores, point_scores, fractions
        )
    ]


class AnomalyDetector:
    """Base class for the AE and seq2seq detectors.

    A subclass sets ``self.model`` (a :class:`~repro.nn.training.ReconstructionModel`)
    and defines ``_check_windows`` (validate a ``(n, ...)`` batch and bring it
    to the family's layout), ``reconstruct`` and the class attributes
    ``OPTIMIZER`` and ``n_channels`` (error channels per point: the scorer is
    fitted on ``(points, n_channels)`` rows).
    """

    OPTIMIZER: str
    n_channels: int

    def __init__(self, name: str, confidence: Optional[ConfidencePolicy] = None) -> None:
        self.name = name
        self.fitted = False
        self.confidence = confidence or ConfidencePolicy()
        self.scorer = GaussianLogPDScorer()

    # -- training ------------------------------------------------------------

    def fit(
        self,
        normal_windows: np.ndarray,
        epochs: int = 30,
        batch_size: int = 16,
        learning_rate: float = 1e-3,
        early_stopping_patience: Optional[int] = 5,
        verbose: bool = False,
    ) -> "AnomalyDetector":
        """Train the model on normal windows, then fit the scorer and threshold."""
        windows = self._check_windows(normal_windows)
        self.model.compile(self.OPTIMIZER, "mse", learning_rate=learning_rate)
        self.model.fit(
            windows,
            epochs=epochs,
            batch_size=batch_size,
            patience=early_stopping_patience,
            verbose=verbose,
        )
        # A fitted detector only infers: free gradient buffers and optimiser moments.
        self.model.release_training_buffers()
        self.scorer.fit(self._point_errors(windows))
        self.fitted = True
        return self

    # -- inference -------------------------------------------------------------

    def reconstruct(self, windows: np.ndarray) -> np.ndarray:
        """Reconstruct windows with the underlying model."""
        raise NotImplementedError

    def _point_errors(self, windows: np.ndarray) -> np.ndarray:
        """Reconstruction errors of checked windows as ``(points, n_channels)`` rows."""
        return (windows - self.reconstruct(windows)).reshape(-1, self.n_channels)

    def _point_score_matrix(self, windows: np.ndarray) -> np.ndarray:
        """The ``(n_windows, n_points)`` logPD matrix behind every detect path."""
        self._require_fitted()
        windows = self._check_windows(windows)
        # Every point of every window is scored with a single vectorised call.
        return self.scorer.log_probability_density(
            self._point_errors(windows)
        ).reshape(windows.shape[:2])

    def detect(self, windows: np.ndarray) -> List[DetectionResult]:
        """Score all windows in one pass and apply the detection + confidence rules."""
        point_scores = self._point_score_matrix(windows)
        return results_from_point_scores(point_scores, self.scorer.threshold, self.confidence)

    def detect_arrays(self, windows: np.ndarray, with_confidence: bool = True) -> tuple:
        """``(is_anomaly, confident, anomaly_scores, fractions)`` for a batch.

        The columnar counterpart of :meth:`detect`: the same outcomes as
        aligned arrays with no per-window objects; ``with_confidence=False``
        skips the confidence rules (``None`` in their slots).
        """
        point_scores = self._point_score_matrix(windows)
        return arrays_from_point_scores(
            point_scores, self.scorer.threshold, self.confidence,
            with_confidence=with_confidence,
        )

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Binary predictions (1 = anomaly) for a batch of windows."""
        return self.detect_arrays(windows, with_confidence=False)[0].astype(int)

    def context_features(self, windows: np.ndarray) -> Optional[np.ndarray]:
        """Optional contextual features this detector can provide for the bandit.

        The multivariate detectors expose the LSTM-encoder state here; the
        univariate detectors return ``None`` (their context comes from simple
        statistics computed in :mod:`repro.bandit.context`).
        """
        del windows
        return None

    # -- introspection -----------------------------------------------------------

    def parameter_count(self) -> int:
        """Number of trainable parameters of the underlying model."""
        return self.model.parameter_count()

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise NotFittedError(f"detector {self.name!r} has not been fitted")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, fitted={self.fitted})"
