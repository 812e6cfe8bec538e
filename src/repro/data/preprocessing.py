"""Preprocessing: standardisation to zero mean and unit variance.

The paper standardises all data "to zero mean and unit variance for all of the
training tasks and datasets".  :class:`StandardScaler` reproduces that with the
usual fit-on-train / apply-everywhere discipline, supporting both flat window
matrices (univariate pipeline) and 3-D window tensors (multivariate pipeline,
where statistics are computed per channel).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import NotFittedError, ShapeError


class StandardScaler:
    """Zero-mean / unit-variance scaler with per-channel statistics.

    For 1-D or 2-D univariate inputs a single (mean, std) pair is used.  For
    3-D inputs of shape ``(windows, time, channels)`` one (mean, std) pair is
    maintained per channel.
    """

    def __init__(self, epsilon: float = 1e-8) -> None:
        if epsilon <= 0:
            raise ShapeError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self.mean_: Optional[np.ndarray] = None
        self.std_: Optional[np.ndarray] = None
        self._per_channel = False

    # -- fitting -------------------------------------------------------------

    def fit(self, data: np.ndarray) -> "StandardScaler":
        """Estimate the statistics from ``data`` (training data only)."""
        data = np.asarray(data, dtype=float)
        if data.size == 0:
            raise ShapeError("cannot fit a scaler on empty data")
        if data.ndim == 3:
            self._per_channel = True
            self.mean_ = data.mean(axis=(0, 1))
            self.std_ = data.std(axis=(0, 1))
        elif data.ndim in (1, 2):
            self._per_channel = False
            self.mean_ = np.asarray(data.mean())
            self.std_ = np.asarray(data.std())
        else:
            raise ShapeError(f"expected 1-D, 2-D or 3-D data, got shape {data.shape}")
        self.std_ = np.where(self.std_ < self.epsilon, 1.0, self.std_)
        return self

    # -- application -----------------------------------------------------------

    def _check_fitted(self) -> None:
        if self.mean_ is None or self.std_ is None:
            raise NotFittedError("StandardScaler must be fitted before use")

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Standardise ``data`` using the fitted statistics."""
        self._check_fitted()
        data = np.asarray(data, dtype=float)
        if self._per_channel and data.ndim not in (2, 3):
            raise ShapeError(
                f"scaler was fitted per-channel (3-D); got data of shape {data.shape}"
            )
        return (data - self.mean_) / self.std_
