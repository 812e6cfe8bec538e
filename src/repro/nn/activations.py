"""Activation functions and their derivatives.

Each activation is represented by an :class:`Activation` object exposing
``forward`` and ``backward``.  ``backward`` receives the *output* of the
forward pass (which is sufficient for all activations used here) together
with the upstream gradient, and returns the gradient with respect to the
pre-activation input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Activation:
    """A named activation with its forward map and output-based derivative."""

    name: str
    forward: Callable[..., np.ndarray]  # (x, out=None); ``out`` may be ``x``
    backward: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


def _linear_forward(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return x if out is None or out is x else np.positive(x, out=out)


def _linear_backward(output: np.ndarray, grad: np.ndarray) -> np.ndarray:
    del output
    return grad


def _relu_forward(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _relu_backward(output: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return grad * (output > 0.0)


def _sigmoid_forward(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # Stable and branch-free: no exponent is positive, and each element gets the
    # arithmetic of the piecewise form, 1 / (1 + e^-x) for x >= 0 and
    # e^x / (1 + e^x) below, without boolean-mask indexing.  The denominator is
    # built first, in one scratch array (a large temporary costs fresh pages
    # from the allocator), so ``out`` may be ``x`` itself.
    denominator = np.abs(x, out=np.empty(np.shape(x)))
    np.negative(denominator, out=denominator)
    np.exp(denominator, out=denominator)
    denominator += 1.0
    numerator = np.exp(np.minimum(x, 0.0, out=out), out=out)
    return np.divide(numerator, denominator, out=denominator if out is None else out)


def _sigmoid_backward(output: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return grad * output * (1.0 - output)


def _tanh_forward(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.tanh(x, out=out)


def _tanh_backward(output: np.ndarray, grad: np.ndarray) -> np.ndarray:
    return grad * (1.0 - output * output)


def _softmax_forward(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    exp = np.subtract(x, np.max(x, axis=-1, keepdims=True), out=out)
    np.exp(exp, out=exp)
    exp /= np.sum(exp, axis=-1, keepdims=True)
    return exp


def _softmax_backward(output: np.ndarray, grad: np.ndarray) -> np.ndarray:
    # Full Jacobian-vector product of softmax along the last axis.
    dot = np.sum(grad * output, axis=-1, keepdims=True)
    return output * (grad - dot)


linear = Activation("linear", _linear_forward, _linear_backward)
relu = Activation("relu", _relu_forward, _relu_backward)
sigmoid = Activation("sigmoid", _sigmoid_forward, _sigmoid_backward)
tanh = Activation("tanh", _tanh_forward, _tanh_backward)
softmax = Activation("softmax", _softmax_forward, _softmax_backward)

_REGISTRY: dict[str, Activation] = {
    act.name: act for act in (linear, relu, sigmoid, tanh, softmax)
}


def get_activation(name_or_activation: Union[str, Activation, None]) -> Activation:
    """Resolve an activation by name; ``None`` resolves to ``linear``."""
    if name_or_activation is None:
        return linear
    if isinstance(name_or_activation, Activation):
        return name_or_activation
    try:
        return _REGISTRY[str(name_or_activation)]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown activation {name_or_activation!r}; available: {sorted(_REGISTRY)}"
        ) from exc
