"""Loss functions.

The paper's anomaly-detection models minimise the mean squared reconstruction
error; :class:`MeanSquaredError` implements that.  Losses expose ``value`` and
``gradient`` (with respect to the prediction), averaged over every element so
the gradient scale is independent of batch and sequence length.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError


class Loss:
    """Base class for losses over (prediction, target) pairs of equal shape."""

    name: str = "loss"

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        """Scalar loss value."""
        raise NotImplementedError

    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Gradient of the loss with respect to ``prediction``."""
        raise NotImplementedError

    @staticmethod
    def _check(prediction: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        prediction = np.asarray(prediction, dtype=float)
        target = np.asarray(target, dtype=float)
        if prediction.shape != target.shape:
            raise ShapeError(
                f"prediction shape {prediction.shape} does not match target shape {target.shape}"
            )
        return prediction, target


class MeanSquaredError(Loss):
    """Mean squared error averaged over all elements."""

    name = "mse"

    def value(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction, target = self._check(prediction, target)
        return float(np.mean(np.square(prediction - target)))

    def gradient(self, prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
        prediction, target = self._check(prediction, target)
        return 2.0 * (prediction - target) / prediction.size


_REGISTRY = {
    "mse": MeanSquaredError,
    "mean_squared_error": MeanSquaredError,
}


def get_loss(spec: Union[str, Loss, None]) -> Loss:
    """Resolve a loss by name; ``None`` resolves to MSE."""
    if spec is None:
        return MeanSquaredError()
    if isinstance(spec, Loss):
        return spec
    try:
        return _REGISTRY[str(spec).lower()]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown loss {spec!r}; available: {sorted(set(_REGISTRY))}"
        ) from exc
