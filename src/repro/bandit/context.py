"""Contextual feature extraction for the policy network.

The policy network must be small and fast enough to run on the IoT device, so
it never sees the raw window.  Instead (Section III-B of the paper):

* **univariate data** — the context is a vector of simple statistics of each
  day inside the weekly window: minimum, maximum, mean and standard deviation
  per day (7 days x 4 statistics = 28 features at the paper's scale);
* **multivariate data** — the context is the encoded state produced by the
  LSTM encoder of the IoT-tier seq2seq model (which already runs on the
  device anyway).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.detectors.lstm_seq2seq import Seq2SeqDetector


class ContextExtractor:
    """Base class: map a batch of windows to a batch of context vectors."""

    #: Dimensionality of the produced context vectors (set when known).
    context_dim: Optional[int] = None

    def extract(self, windows: np.ndarray) -> np.ndarray:
        """Context vectors of shape ``(n_windows, context_dim)``."""
        raise NotImplementedError

    def __call__(self, windows: np.ndarray) -> np.ndarray:
        return self.extract(windows)


class UnivariateContextExtractor(ContextExtractor):
    """Per-segment (per-day) min/max/mean/std statistics of a univariate window."""

    def __init__(self, segments: int = 7, normalize: bool = True) -> None:
        if segments <= 0:
            raise ConfigurationError(f"segments must be positive, got {segments}")
        self.segments = int(segments)
        self.normalize = bool(normalize)
        self.context_dim = 4 * self.segments
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    def _raw_features(self, windows: np.ndarray) -> np.ndarray:
        windows = np.asarray(windows, dtype=float)
        if windows.ndim == 1:
            windows = windows[None, :]
        if windows.ndim != 2:
            raise ShapeError(
                f"univariate windows must be 2-D (n_windows, window_size), got {windows.shape}"
            )
        n_windows, window_size = windows.shape
        segments = self.segments
        if window_size % segments != 0:
            raise ShapeError(
                f"window size {window_size} is not divisible into {segments} segments"
            )
        segment_length = window_size // segments
        segmented = windows.reshape(n_windows, segments, segment_length)
        # [min | max | mean | std] blocks of one matrix, each written in place.
        features = np.empty((n_windows, 4 * segments))
        minimum, maximum, mean, std = (
            features[:, block * segments:(block + 1) * segments] for block in range(4)
        )
        # Min and max are order-free: reduce a position-major copy elementwise.
        by_position = np.ascontiguousarray(segmented.transpose(2, 0, 1))
        np.minimum.reduce(by_position, axis=0, out=minimum)
        np.maximum.reduce(by_position, axis=0, out=maximum)
        # One sum for mean and std, then NumPy's own ``_var`` steps.  Sums stay
        # on the last axis: their pairwise order sets the last bit.
        sums = np.add.reduce(segmented, axis=2, keepdims=True)
        np.true_divide(sums, segment_length, out=sums)
        mean[...] = sums[..., 0]
        deviations = np.subtract(segmented, sums)
        np.square(deviations, out=deviations)
        np.add.reduce(deviations, axis=2, out=std)
        np.true_divide(std, segment_length, out=std)
        np.sqrt(std, out=std)
        return features

    def fit(self, windows: np.ndarray) -> "UnivariateContextExtractor":
        """Estimate feature-normalisation statistics from training windows."""
        features = self._raw_features(windows)
        self._mean = features.mean(axis=0)
        std = features.std(axis=0)
        self._std = np.where(std < 1e-8, 1.0, std)
        return self

    def extract(self, windows: np.ndarray) -> np.ndarray:
        features = self._raw_features(windows)
        if not self.normalize:
            return features
        if self._mean is None or self._std is None:
            raise NotFittedError(
                "UnivariateContextExtractor must be fitted before extracting normalised features"
            )
        features -= self._mean
        features /= self._std
        return features


class EncoderContextExtractor(ContextExtractor):
    """Context from the LSTM-encoder hidden state of a (fitted) seq2seq detector."""

    def __init__(self, detector: Seq2SeqDetector) -> None:
        self.detector = detector
        encoder = detector.model.encoder
        self.context_dim = getattr(encoder, "units", None)

    def extract(self, windows: np.ndarray) -> np.ndarray:
        features = self.detector.context_features(np.asarray(windows, dtype=float))
        if self.context_dim is None:
            self.context_dim = int(features.shape[1])
        return features
