"""Train/test splits following Section III-A of the paper.

For the multivariate (MHEALTH) pipeline the paper uses:

* **anomaly-detection models**: 70 % of the normal windows (across all
  subjects) as the training set; the remaining 30 % of normal windows plus 5 %
  of each anomalous activity as the test set;
* **policy network**: 30 % of the normal windows plus 5 % of each anomalous
  activity as the training set, and the whole window set as the test set.

For the univariate pipeline the same machinery is reused with the anomaly
classes collapsed into a single "anomalous" group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.data.datasets import LabeledWindows
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class SplitResult:
    """A train/test pair of window batches."""

    train: LabeledWindows
    test: LabeledWindows


def _select_fraction(indices: np.ndarray, fraction: float,
                     generator: np.random.Generator) -> np.ndarray:
    """Randomly select ``fraction`` of ``indices`` (at least one when non-empty)."""
    if len(indices) == 0 or fraction <= 0.0:
        return indices[:0]
    count = max(1, int(round(fraction * len(indices))))
    chosen = generator.choice(indices, size=min(count, len(indices)), replace=False)
    return np.sort(chosen)


def anomaly_detection_split(
    windows: LabeledWindows,
    normal_train_fraction: float = 0.7,
    anomaly_test_fraction: float = 0.05,
    anomaly_groups: Optional[np.ndarray] = None,
    rng: RngLike = 0,
) -> SplitResult:
    """The paper's anomaly-detection split.

    ``normal_train_fraction`` of the normal windows form the (purely normal)
    training set; the remaining normal windows plus ``anomaly_test_fraction``
    of each anomalous group form the test set.  ``anomaly_groups`` assigns each
    window to a group (e.g. its activity id); when omitted, all anomalous
    windows form a single group.
    """
    if not 0.0 < normal_train_fraction < 1.0:
        raise ConfigurationError(
            f"normal_train_fraction must lie in (0, 1), got {normal_train_fraction}"
        )
    if not 0.0 < anomaly_test_fraction <= 1.0:
        raise ConfigurationError(
            f"anomaly_test_fraction must lie in (0, 1], got {anomaly_test_fraction}"
        )
    generator = ensure_rng(rng)
    labels = windows.labels
    normal_indices = np.flatnonzero(labels == 0)
    anomalous_indices = np.flatnonzero(labels == 1)
    if len(normal_indices) < 2:
        raise ConfigurationError("need at least 2 normal windows for the AD split")

    generator.shuffle(normal_indices)
    n_train = max(1, int(round(normal_train_fraction * len(normal_indices))))
    n_train = min(n_train, len(normal_indices) - 1)
    train_indices = np.sort(normal_indices[:n_train])
    test_normal = np.sort(normal_indices[n_train:])

    if anomaly_groups is None:
        groups = np.zeros(len(windows), dtype=int)
    else:
        groups = np.asarray(anomaly_groups)
        if groups.shape[0] != len(windows):
            raise ConfigurationError("anomaly_groups must have one entry per window")

    test_anomalous_parts = []
    for group in np.unique(groups[anomalous_indices]):
        group_indices = anomalous_indices[groups[anomalous_indices] == group]
        test_anomalous_parts.append(_select_fraction(group_indices, anomaly_test_fraction, generator))
    test_anomalous = (
        np.concatenate(test_anomalous_parts) if test_anomalous_parts else anomalous_indices[:0]
    )

    test_indices = np.sort(np.concatenate([test_normal, test_anomalous]))
    return SplitResult(train=windows.subset(train_indices), test=windows.subset(test_indices))


def policy_training_split(
    windows: LabeledWindows,
    normal_fraction: float = 0.3,
    anomaly_fraction: float = 0.05,
    anomaly_groups: Optional[np.ndarray] = None,
    rng: RngLike = 0,
) -> Tuple[LabeledWindows, LabeledWindows]:
    """The paper's policy-network split.

    Returns ``(policy_train, policy_test)`` where the training set holds
    ``normal_fraction`` of the normal windows plus ``anomaly_fraction`` of each
    anomalous group, and the test set is the whole window batch.
    """
    if not 0.0 < normal_fraction <= 1.0:
        raise ConfigurationError(f"normal_fraction must lie in (0, 1], got {normal_fraction}")
    if not 0.0 < anomaly_fraction <= 1.0:
        raise ConfigurationError(f"anomaly_fraction must lie in (0, 1], got {anomaly_fraction}")
    generator = ensure_rng(rng)
    labels = windows.labels
    normal_indices = np.flatnonzero(labels == 0)
    anomalous_indices = np.flatnonzero(labels == 1)

    train_normal = _select_fraction(normal_indices, normal_fraction, generator)

    if anomaly_groups is None:
        groups = np.zeros(len(windows), dtype=int)
    else:
        groups = np.asarray(anomaly_groups)
        if groups.shape[0] != len(windows):
            raise ConfigurationError("anomaly_groups must have one entry per window")
    train_anomalous_parts = []
    for group in np.unique(groups[anomalous_indices]):
        group_indices = anomalous_indices[groups[anomalous_indices] == group]
        train_anomalous_parts.append(_select_fraction(group_indices, anomaly_fraction, generator))
    train_anomalous = (
        np.concatenate(train_anomalous_parts) if train_anomalous_parts else anomalous_indices[:0]
    )

    train_indices = np.sort(np.concatenate([train_normal, train_anomalous]))
    return windows.subset(train_indices), windows
