"""Binary anomaly-detection metrics: accuracy, precision, recall, F1.

The positive class is "anomalous" (label 1) throughout, matching the paper's
F1-score convention.  Every precision/recall/F1 here, scalar or running, and
every rate the streaming, adaptation and serving reports print comes from
:func:`_precision_recall_f1`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.utils.validation import check_binary_labels

#: Where each ``2 * prediction + label`` cell lands in ``[tp, fp, tn, fn]``.
_CELL_ORDER = np.array([3, 2, 0, 1])


def _check_pair(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    predictions = check_binary_labels(predictions, "predictions")
    labels = check_binary_labels(labels, "labels")
    if predictions.shape != labels.shape:
        raise ShapeError(
            f"predictions {predictions.shape} and labels {labels.shape} must have the same shape"
        )
    return predictions, labels


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` elementwise, 0 where the denominator is 0."""
    return np.divide(
        numerator, denominator, out=np.zeros_like(numerator), where=denominator != 0
    )


def _precision_recall_f1(tp, fp, fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall and F1 of the anomaly class from confusion counts.

    ``tp``/``fp``/``fn`` are counts or aligned arrays of counts; each result
    is 0 where its denominator is 0 (nothing predicted anomalous, no anomaly,
    or both rates 0).
    """
    tp, fp, fn = (np.asarray(count, dtype=float) for count in (tp, fp, fn))
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return precision, recall, f1


def confusion_counts(predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The ``[tp, fp, tn, fn]`` count vector for one batch of binary outcomes.

    The single source of the count ordering :func:`rates_from_confusion`
    expects — shared by the streaming aggregator, the adaptation loop's
    windowed-F1 and shadow-gate computations and the ingest server.
    Anything but 0/1 raises.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((predictions | labels) & ~1):
        raise ConfigurationError("confusion counts need 0/1 predictions and labels")
    cells = np.bincount((2 * predictions + labels).ravel(), minlength=4)
    return cells[_CELL_ORDER]


def rates_from_confusion(counts: np.ndarray) -> dict:
    """accuracy/precision/recall/F1 from one ``[tp, fp, tn, fn]`` vector."""
    tp, fp, tn, fn = (int(c) for c in counts)
    total = tp + fp + tn + fn
    precision, recall, f1 = _precision_recall_f1(tp, fp, fn)
    return {
        "accuracy": float((tp + tn) / total) if total else 0.0,
        "precision": float(precision),
        "recall": float(recall),
        "f1": float(f1),
        "anomaly_fraction": float((tp + fn) / total) if total else 0.0,
    }


def _scalar_rates(predictions, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    predictions, labels = _check_pair(predictions, labels)
    tp, fp, _tn, fn = confusion_counts(predictions, labels)
    return _precision_recall_f1(tp, fp, fn)


def accuracy_score(predictions, labels) -> float:
    """Fraction of windows classified correctly."""
    predictions, labels = _check_pair(predictions, labels)
    if predictions.size == 0:
        return 0.0
    return float(np.mean(predictions == labels))


def precision_score(predictions, labels) -> float:
    """Precision of the anomaly class (0 when nothing was predicted anomalous)."""
    return float(_scalar_rates(predictions, labels)[0])


def recall_score(predictions, labels) -> float:
    """Recall of the anomaly class (0 when no anomaly exists)."""
    return float(_scalar_rates(predictions, labels)[1])


def f1_score(predictions, labels) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    return float(_scalar_rates(predictions, labels)[2])


def cumulative_accuracy(predictions, labels) -> np.ndarray:
    """Running accuracy after each window (the demo panel's accuracy curve)."""
    predictions, labels = _check_pair(predictions, labels)
    if predictions.size == 0:
        return np.array([])
    correct = (predictions == labels).astype(float)
    return np.cumsum(correct) / np.arange(1, len(correct) + 1)


def cumulative_f1(predictions, labels) -> np.ndarray:
    """Running F1-score after each window (the demo panel's F1 curve).

    One pass: running sums of the per-window confusion cells, then the same
    operations as :func:`f1_score` elementwise, so entry ``i`` equals
    ``f1_score(predictions[:i + 1], labels[:i + 1])`` exactly.
    """
    predictions, labels = _check_pair(predictions, labels)
    tp = np.cumsum(predictions & labels)
    fp = np.cumsum(predictions > labels)
    fn = np.cumsum(predictions < labels)
    return _precision_recall_f1(tp, fp, fn)[2]
