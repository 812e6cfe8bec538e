"""Common anomaly-detector interface.

A detector wraps a reconstruction model plus the Gaussian logPD scorer and the
confidence rules.  The interface is deliberately small: ``fit`` on normal
windows, ``detect`` a batch of windows (returning a
:class:`DetectionResult` per window), and a few introspection helpers
(parameter count, name) used by the HEC deployment and evaluation code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

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
    """Base class for the AE and seq2seq detectors."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.fitted = False

    # -- training ------------------------------------------------------------

    def fit(self, normal_windows: np.ndarray, **kwargs) -> "AnomalyDetector":
        """Train the reconstruction model and the scorer on normal windows."""
        raise NotImplementedError

    # -- inference -------------------------------------------------------------

    def reconstruct(self, windows: np.ndarray) -> np.ndarray:
        """Reconstruct windows with the underlying model."""
        raise NotImplementedError

    def detect(self, windows: np.ndarray) -> List[DetectionResult]:
        """Run detection on a batch of windows (one result per window)."""
        raise NotImplementedError

    def detect_arrays(self, windows: np.ndarray, with_confidence: bool = True) -> tuple:
        """``(is_anomaly, confident, anomaly_scores, fractions)`` for a batch.

        The columnar counterpart of :meth:`detect`: the same outcomes as
        aligned arrays instead of per-window :class:`DetectionResult`
        objects.  The base implementation tears apart :meth:`detect` (so any
        subclass is automatically correct); the built-in detectors override
        it to skip the object layer entirely, and to skip the confidence
        rules too when ``with_confidence=False`` (the base fallback simply
        returns them regardless — a correct superset).
        """
        del with_confidence
        results = self.detect(windows)
        return (
            np.fromiter((r.is_anomaly for r in results), dtype=bool, count=len(results)),
            np.fromiter((r.confident for r in results), dtype=bool, count=len(results)),
            np.fromiter(
                (r.anomaly_score for r in results), dtype=float, count=len(results)
            ),
            np.fromiter(
                (r.anomalous_point_fraction for r in results),
                dtype=float,
                count=len(results),
            ),
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
        raise NotImplementedError

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise NotFittedError(f"detector {self.name!r} has not been fitted")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, fitted={self.fitted})"
