"""Weight initialisers.

Each initialiser is a callable ``(shape, rng) -> ndarray``.  The registry in
:func:`get_initializer` resolves string names so layer constructors can accept
either a name or a callable, mirroring the Keras API the paper's code used.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError

Initializer = Callable[[Sequence[int], np.random.Generator], np.ndarray]


def zeros(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """All-zero initialiser (used for biases)."""
    del rng
    return np.zeros(shape, dtype=float)


def _fan_in_out(shape: Sequence[int]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight tensor shape."""
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return int(shape[0]), int(shape[0])
    fan_in = int(np.prod(shape[:-1]))
    fan_out = int(shape[-1])
    return fan_in, fan_out


def glorot_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialiser: U(-limit, limit), limit=sqrt(6/(fan_in+fan_out))."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal initialiser (used for LSTM recurrent kernels)."""
    if len(shape) < 2:
        return glorot_uniform(shape, rng)
    rows = int(shape[0])
    cols = int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    # Make the decomposition unique (and hence deterministic given the rng draw).
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(q[:rows, :cols]).reshape(shape)


_REGISTRY: dict[str, Initializer] = {
    "zeros": zeros,
    "glorot_uniform": glorot_uniform,
    "orthogonal": orthogonal,
}


def get_initializer(name_or_fn: Union[str, Initializer]) -> Initializer:
    """Resolve an initialiser by name, or pass through a callable unchanged."""
    if callable(name_or_fn):
        return name_or_fn
    try:
        return _REGISTRY[str(name_or_fn)]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown initializer {name_or_fn!r}; available: {sorted(_REGISTRY)}"
        ) from exc
