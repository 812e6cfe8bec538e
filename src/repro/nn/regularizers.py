"""Kernel regularisers.

The paper trains its LSTM-seq2seq models with an L2-norm kernel regulariser of
``1e-4``; :class:`L2Regularizer` reproduces that.  Regularisers contribute a
penalty term to the loss and a corresponding term to the weight gradient.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative


class Regularizer:
    """Base class: a differentiable penalty on a weight tensor."""

    def penalty(self, weights: np.ndarray) -> float:
        """Scalar penalty added to the training loss."""
        raise NotImplementedError

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        """Gradient of the penalty with respect to ``weights``."""
        raise NotImplementedError

    def get_config(self) -> dict:
        """JSON-serialisable configuration of the regulariser."""
        raise NotImplementedError


class ZeroRegularizer(Regularizer):
    """No regularisation: zero penalty, zero gradient."""

    def penalty(self, weights: np.ndarray) -> float:
        del weights
        return 0.0

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        return np.zeros_like(weights)

    def get_config(self) -> dict:
        return {"type": "none"}


class L2Regularizer(Regularizer):
    """L2 (ridge) penalty ``strength * sum(w**2)``."""

    def __init__(self, strength: float = 1e-4) -> None:
        self.strength = check_non_negative(strength, "strength")

    def penalty(self, weights: np.ndarray) -> float:
        return float(self.strength * np.sum(np.square(weights)))

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        return 2.0 * self.strength * weights

    def get_config(self) -> dict:
        return {"type": "l2", "strength": self.strength}


#: Regulariser names :func:`get_regularizer` understands.
_NAMES = {"l2": L2Regularizer, "none": ZeroRegularizer, "zero": ZeroRegularizer}


def get_regularizer(spec: Union[Regularizer, str, float, None]) -> Regularizer:
    """Resolve a regulariser specification.

    ``None`` → no regularisation; a float → L2 with that strength; a string
    (one of :data:`_NAMES`) → the named regulariser with its default
    strength; a :class:`Regularizer` instance is passed through unchanged.
    """
    if spec is None:
        return ZeroRegularizer()
    if isinstance(spec, Regularizer):
        return spec
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return L2Regularizer(float(spec))
    if isinstance(spec, str) and spec.lower() in _NAMES:
        return _NAMES[spec.lower()]()
    raise ConfigurationError(
        f"cannot interpret regularizer specification {spec!r}; available: "
        f"{sorted(_NAMES)}, a float (L2 strength) or None"
    )
