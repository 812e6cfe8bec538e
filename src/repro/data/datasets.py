"""Dataset containers.

Two light-weight containers are used throughout the library:

* :class:`TimeSeriesDataset` — a raw (possibly multivariate) time series with
  per-timestep anomaly labels and metadata;
* :class:`LabeledWindows` — a batch of fixed-length windows with one binary
  label per window, which is what detectors, schemes and the bandit consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.exceptions import ShapeError
from repro.utils.validation import check_binary_labels


@dataclass
class TimeSeriesDataset:
    """A raw time series with per-timestep anomaly labels.

    Attributes
    ----------
    values:
        Array of shape ``(timesteps,)`` for univariate data or
        ``(timesteps, channels)`` for multivariate data.
    labels:
        Binary array of shape ``(timesteps,)``: 1 marks anomalous timesteps.
    sampling_rate_hz:
        Nominal sampling rate of the series.
    name:
        Human-readable dataset name.
    metadata:
        Free-form extra information (activity ids, subject ids, ...).
    """

    values: np.ndarray
    labels: np.ndarray
    sampling_rate_hz: float = 1.0
    name: str = "timeseries"
    metadata: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.labels = check_binary_labels(self.labels, "labels")
        if self.values.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"values ({self.values.shape[0]} steps) and labels "
                f"({self.labels.shape[0]} steps) disagree in length"
            )

    @property
    def n_timesteps(self) -> int:
        """Number of timesteps in the series."""
        return int(self.values.shape[0])

    def as_2d(self) -> np.ndarray:
        """The values with an explicit channel axis (``(timesteps, channels)``)."""
        if self.values.ndim == 1:
            return self.values[:, None]
        return self.values


@dataclass
class LabeledWindows:
    """A batch of fixed-length windows with one binary anomaly label each.

    Attributes
    ----------
    windows:
        Array of shape ``(n_windows, window_size)`` (univariate) or
        ``(n_windows, window_size, channels)`` (multivariate).
    labels:
        Binary array of shape ``(n_windows,)``: 1 marks an anomalous window.
    start_indices:
        Index of the first timestep of each window in the source series
        (optional; used by the demo panel to plot aligned results).
    """

    windows: np.ndarray
    labels: np.ndarray
    start_indices: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.windows = np.asarray(self.windows, dtype=float)
        self.labels = check_binary_labels(self.labels, "labels")
        if self.windows.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"windows ({self.windows.shape[0]}) and labels ({self.labels.shape[0]}) "
                "disagree in count"
            )
        if self.start_indices is not None:
            self.start_indices = np.asarray(self.start_indices, dtype=int)
            if self.start_indices.shape[0] != self.windows.shape[0]:
                raise ShapeError("start_indices must have one entry per window")

    def __len__(self) -> int:
        return int(self.windows.shape[0])

    @property
    def window_size(self) -> int:
        """Number of timesteps per window."""
        return int(self.windows.shape[1])

    def subset(self, mask_or_indices) -> "LabeledWindows":
        """Windows selected by a boolean mask or an index array."""
        indices = np.asarray(mask_or_indices)
        starts = self.start_indices[indices] if self.start_indices is not None else None
        return LabeledWindows(
            windows=self.windows[indices],
            labels=self.labels[indices],
            start_indices=starts,
        )
