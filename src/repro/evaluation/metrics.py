"""Binary anomaly-detection metrics: accuracy, precision, recall, F1.

The positive class is "anomalous" (label 1) throughout, matching the paper's
F1-score convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ShapeError
from repro.utils.validation import check_binary_labels


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion-matrix counts with the anomaly class as positive."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int


def _check_pair(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    predictions = check_binary_labels(predictions, "predictions")
    labels = check_binary_labels(labels, "labels")
    if predictions.shape != labels.shape:
        raise ShapeError(
            f"predictions {predictions.shape} and labels {labels.shape} must have the same shape"
        )
    return predictions, labels


def confusion_counts(predictions, labels) -> ConfusionCounts:
    """Compute the binary confusion counts (anomaly = positive class)."""
    predictions, labels = _check_pair(predictions, labels)
    true_positives = int(np.sum((predictions == 1) & (labels == 1)))
    false_positives = int(np.sum((predictions == 1) & (labels == 0)))
    true_negatives = int(np.sum((predictions == 0) & (labels == 0)))
    false_negatives = int(np.sum((predictions == 0) & (labels == 1)))
    return ConfusionCounts(true_positives, false_positives, true_negatives, false_negatives)


def accuracy_score(predictions, labels) -> float:
    """Fraction of windows classified correctly."""
    predictions, labels = _check_pair(predictions, labels)
    if predictions.size == 0:
        return 0.0
    return float(np.mean(predictions == labels))


def precision_score(predictions, labels) -> float:
    """Precision of the anomaly class (0 when nothing was predicted anomalous)."""
    counts = confusion_counts(predictions, labels)
    denominator = counts.true_positives + counts.false_positives
    if denominator == 0:
        return 0.0
    return counts.true_positives / denominator


def recall_score(predictions, labels) -> float:
    """Recall of the anomaly class (0 when no anomaly exists)."""
    counts = confusion_counts(predictions, labels)
    denominator = counts.true_positives + counts.false_negatives
    if denominator == 0:
        return 0.0
    return counts.true_positives / denominator


def f1_score(predictions, labels) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    precision = precision_score(predictions, labels)
    recall = recall_score(predictions, labels)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def cumulative_accuracy(predictions, labels) -> np.ndarray:
    """Running accuracy after each window (the demo panel's accuracy curve)."""
    predictions, labels = _check_pair(predictions, labels)
    if predictions.size == 0:
        return np.array([])
    correct = (predictions == labels).astype(float)
    return np.cumsum(correct) / np.arange(1, len(correct) + 1)


def cumulative_f1(predictions, labels) -> np.ndarray:
    """Running F1-score after each window (the demo panel's F1 curve)."""
    predictions, labels = _check_pair(predictions, labels)
    scores = np.zeros(len(predictions))
    for index in range(len(predictions)):
        scores[index] = f1_score(predictions[: index + 1], labels[: index + 1])
    return scores
