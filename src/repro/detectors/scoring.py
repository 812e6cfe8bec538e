"""Gaussian log-probability-density anomaly scoring.

Following Section II-A3 of the paper, reconstruction errors of normal data are
assumed to follow a multivariate Gaussian ``N(mu, Sigma)``.  The anomaly score
of a data point is the logarithmic probability density (logPD) of its
reconstruction error under that Gaussian; the detection threshold is the
*minimum* logPD observed on the (normal) training set, so that any point whose
logPD falls below what was ever seen on normal data is flagged as an outlier.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import NotFittedError, ShapeError
from repro.utils.validation import check_positive


class GaussianLogPDScorer:
    """Fit ``N(mu, Sigma)`` on normal reconstruction errors and score by logPD.

    Works for univariate errors (shape ``(n,)`` or ``(n, 1)``) and multivariate
    errors (shape ``(n, d)``).  A small diagonal regulariser keeps the
    covariance invertible when channels are nearly deterministic.
    """

    def __init__(self, covariance_regularization: float = 1e-6) -> None:
        self.covariance_regularization = check_positive(
            covariance_regularization, "covariance_regularization"
        )
        self.mean_: Optional[np.ndarray] = None
        self.covariance_: Optional[np.ndarray] = None
        self.precision_: Optional[np.ndarray] = None
        self.log_det_: Optional[float] = None
        self.threshold_: Optional[float] = None

    # -- fitting ---------------------------------------------------------------

    @staticmethod
    def _as_2d(errors: np.ndarray) -> np.ndarray:
        errors = np.asarray(errors, dtype=float)
        if errors.ndim == 1:
            return errors[:, None]
        if errors.ndim == 2:
            return errors
        raise ShapeError(f"errors must be 1-D or 2-D, got shape {errors.shape}")

    def fit(self, normal_errors: np.ndarray) -> "GaussianLogPDScorer":
        """Estimate ``mu`` and ``Sigma`` from normal reconstruction errors."""
        errors = self._as_2d(normal_errors)
        if errors.shape[0] < 2:
            raise ShapeError("need at least 2 error samples to fit the Gaussian")
        self.mean_ = errors.mean(axis=0)
        centred = errors - self.mean_
        covariance = (centred.T @ centred) / (errors.shape[0] - 1)
        covariance += self.covariance_regularization * np.eye(errors.shape[1])
        self.covariance_ = covariance
        self.precision_ = np.linalg.inv(covariance)
        sign, log_det = np.linalg.slogdet(covariance)
        if sign <= 0:
            raise ShapeError("covariance matrix is not positive definite")
        self.log_det_ = float(log_det)
        # The threshold is set from the same normal data (minimum logPD seen on
        # the training set), per the paper.
        self.threshold_ = float(np.min(self.log_probability_density(errors)))
        return self

    # -- scoring -----------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.mean_ is None or self.precision_ is None or self.log_det_ is None:
            raise NotFittedError("GaussianLogPDScorer must be fitted before scoring")

    def log_probability_density(self, errors: np.ndarray) -> np.ndarray:
        """logPD of each error sample under the fitted Gaussian."""
        self._require_fitted()
        errors = self._as_2d(errors)
        if errors.shape[1] != self.mean_.shape[0]:
            raise ShapeError(
                f"errors have {errors.shape[1]} dimensions but the scorer was fitted "
                f"with {self.mean_.shape[0]}"
            )
        dimension = errors.shape[1]
        if dimension == 1:
            # The einsum's own product order, (c * p) * c, without its setup.
            centred = errors[:, 0] - self.mean_[0]
            logpd = centred * self.precision_[0, 0]
            logpd *= centred
        else:
            centred = errors - self.mean_
            logpd = np.einsum("ij,jk,ik->i", centred, self.precision_, centred)
        logpd += self.log_det_
        logpd += dimension * np.log(2.0 * np.pi)
        logpd *= -0.5
        return logpd

    @property
    def threshold(self) -> float:
        """Minimum logPD observed on the normal training errors."""
        self._require_fitted()
        if self.threshold_ is None:
            raise NotFittedError("scorer threshold has not been computed")
        return self.threshold_

    # -- persistence -----------------------------------------------------------------

    def get_state(self) -> dict:
        """Snapshot of the fitted parameters (for saving alongside the model)."""
        self._require_fitted()
        return {
            "mean": np.asarray(self.mean_),
            "covariance": np.asarray(self.covariance_),
            "threshold": np.asarray(self.threshold_),
            "covariance_regularization": np.asarray(self.covariance_regularization),
        }

    @classmethod
    def from_state(cls, state: dict) -> "GaussianLogPDScorer":
        """Rebuild a scorer from :meth:`get_state` output."""
        scorer = cls(covariance_regularization=float(state["covariance_regularization"]))
        scorer.mean_ = np.asarray(state["mean"], dtype=float)
        scorer.covariance_ = np.asarray(state["covariance"], dtype=float)
        scorer.precision_ = np.linalg.inv(scorer.covariance_)
        sign, log_det = np.linalg.slogdet(scorer.covariance_)
        scorer.log_det_ = float(log_det)
        scorer.threshold_ = float(state["threshold"])
        return scorer
