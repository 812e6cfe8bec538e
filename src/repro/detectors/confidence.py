"""Confident-detection rules.

Section II-A3 of the paper calls a detection *confident* when the input
sequence satisfies at least one of:

(i)  at least one data point has a logPD less than a certain multiple (e.g.
     2x) of the threshold (logPD values are negative, so "2x the threshold"
     is a *stricter*, more negative level); or
(ii) the number of anomalous points exceeds a certain percentage (e.g. 5 %)
     of the sequence length.

The Successive offloading scheme stops escalating to a higher HEC layer as
soon as the current layer's detection is confident.  The same rules also mark
a *normal* verdict as confident when the window contains no outlier points at
all and its scores stay well above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class ConfidencePolicy:
    """Parameters of the confident-detection rules.

    Attributes
    ----------
    strong_score_multiplier:
        Rule (i): a point with ``logPD < strong_score_multiplier * threshold``
        marks the anomaly verdict as confident (2.0 in the paper; recall that
        logPD and the threshold are negative).
    anomalous_fraction:
        Rule (ii): the anomaly verdict is confident when more than this
        fraction of the window's points fall below the threshold (0.05 in the
        paper).
    normal_margin:
        A *normal* verdict is confident when no point falls below
        ``normal_margin * threshold`` (i.e. every score stays comfortably above
        the detection threshold).  This mirrors how a confident "all clear"
        terminates the Successive scheme early.
    """

    strong_score_multiplier: float = 2.0
    anomalous_fraction: float = 0.05
    normal_margin: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.strong_score_multiplier, "strong_score_multiplier")
        check_probability(self.anomalous_fraction, "anomalous_fraction")
        check_positive(self.normal_margin, "normal_margin")

    def evaluate_batch(
        self, point_scores: np.ndarray, threshold: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply the rules to an ``(n_windows, n_points)`` matrix of per-point
        logPD scores against the detector's (negative) logPD ``threshold``.

        Returns ``(is_anomaly, confident, anomalous_fraction)``, one entry per
        window: the binary verdict, whether that verdict is confident, and the
        fraction of the window's points below the threshold.
        """
        point_scores = np.asarray(point_scores, dtype=float)
        if point_scores.ndim != 2:
            raise ValueError(
                f"point_scores must be 2-D (n_windows, n_points), got shape "
                f"{point_scores.shape}"
            )
        below_threshold = point_scores < threshold
        if point_scores.shape[1]:
            anomalous_fraction = below_threshold.mean(axis=1)
        else:
            anomalous_fraction = np.zeros(point_scores.shape[0])
        is_anomaly = below_threshold.any(axis=1)
        strongly_anomalous = (
            point_scores < self.strong_score_multiplier * threshold
        ).any(axis=1)
        confident_anomaly = strongly_anomalous | (
            anomalous_fraction > self.anomalous_fraction
        )
        confident_normal = (point_scores >= self.normal_margin * threshold).all(axis=1)
        confident = np.where(is_anomaly, confident_anomaly, confident_normal)
        return is_anomaly, confident, anomalous_fraction
