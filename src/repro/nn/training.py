"""Training-loop utilities: history tracking, mini-batching and early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class TrainingHistory:
    """Per-epoch metric history recorded by ``fit``.

    ``metrics`` maps a metric name (e.g. ``"loss"``) to the list of its
    per-epoch values.
    """

    metrics: Dict[str, List[float]] = field(default_factory=dict)

    def record(self, name: str, value: float) -> None:
        """Append ``value`` to the series for ``name``."""
        self.metrics.setdefault(name, []).append(float(value))

    def last(self, name: str) -> float:
        """Most recent value of the metric ``name``."""
        series = self.metrics.get(name)
        if not series:
            raise KeyError(f"no values recorded for metric {name!r}")
        return series[-1]

    @property
    def epochs(self) -> int:
        """Number of completed epochs (length of the loss series)."""
        if not self.metrics:
            return 0
        return max(len(series) for series in self.metrics.values())


class EarlyStopping:
    """Stop training when a monitored metric has stopped improving.

    Mirrors the Keras callback of the same name: training stops once the
    monitored quantity fails to improve by at least ``min_delta`` for
    ``patience`` consecutive epochs.
    """

    def __init__(
        self,
        monitor: str = "loss",
        patience: int = 5,
        min_delta: float = 0.0,
        mode: str = "min",
    ) -> None:
        if patience < 0:
            raise ConfigurationError(f"patience must be non-negative, got {patience}")
        if mode not in ("min", "max"):
            raise ConfigurationError(f"mode must be 'min' or 'max', got {mode!r}")
        self.monitor = monitor
        self.patience = int(patience)
        self.min_delta = float(abs(min_delta))
        self.mode = mode
        self.best: Optional[float] = None
        self.wait = 0
        self.stopped_epoch: Optional[int] = None

    def update(self, epoch: int, history: TrainingHistory) -> bool:
        """Record the epoch's metric; return ``True`` when training should stop."""
        try:
            current = history.last(self.monitor)
        except KeyError:
            return False
        if self.best is None:
            self.best = current
            self.wait = 0
            return False
        if self.mode == "min":
            improved = current < self.best - self.min_delta
        else:
            improved = current > self.best + self.min_delta
        if improved:
            self.best = current
            self.wait = 0
            return False
        self.wait += 1
        if self.wait >= self.patience:
            self.stopped_epoch = epoch
            return True
        return False


def iterate_minibatches(
    inputs: np.ndarray,
    targets: Optional[np.ndarray],
    batch_size: int,
    shuffle: bool = True,
    rng: RngLike = None,
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """Yield mini-batches of (inputs, targets) along the first axis.

    ``targets`` may be ``None`` (e.g. for unsupervised reconstruction where
    targets equal inputs); in that case the second element of each yielded
    tuple is ``None``.
    """
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    n = inputs.shape[0]
    if targets is not None and targets.shape[0] != n:
        raise ConfigurationError(
            f"inputs and targets disagree on the number of samples: {n} vs {targets.shape[0]}"
        )
    indices = np.arange(n)
    if shuffle:
        ensure_rng(rng).shuffle(indices)
    for start in range(0, n, batch_size):
        batch_idx = indices[start: start + batch_size]
        batch_targets = targets[batch_idx] if targets is not None else None
        yield inputs[batch_idx], batch_targets
