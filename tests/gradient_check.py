"""Finite-difference gradient checking.

A test helper, next to ``goldens.py``: it validates the hand-derived
backward passes of every layer (Dense, LSTM, Bidirectional, seq2seq).  The
check perturbs each parameter (or a random subset for large tensors), recomputes the loss, and
compares the numerical derivative against the analytic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, ensure_rng


@dataclass
class GradientCheckResult:
    """Outcome of a gradient check over one or more parameter tensors."""

    max_relative_error: float
    checked_entries: int

    def passed(self, tolerance: float = 1e-4) -> bool:
        """Whether the worst relative error is within ``tolerance``."""
        return self.max_relative_error <= tolerance


def _relative_error(analytic: float, numeric: float) -> float:
    scale = max(abs(analytic), abs(numeric), 1e-8)
    return abs(analytic - numeric) / scale


def check_gradients(
    loss_fn: Callable[[], float],
    params_and_grads: List[Tuple[np.ndarray, np.ndarray]],
    epsilon: float = 1e-5,
    max_entries_per_param: int = 20,
    rng: RngLike = 0,
) -> GradientCheckResult:
    """Compare analytic gradients against central finite differences.

    Parameters
    ----------
    loss_fn:
        Zero-argument callable that recomputes the scalar loss with the
        *current* parameter values (it must not mutate them).
    params_and_grads:
        The (parameter, analytic-gradient) pairs to verify.  The gradients
        must correspond to the loss returned by ``loss_fn`` at the current
        parameter values.
    epsilon:
        Finite-difference step size.
    max_entries_per_param:
        For large tensors only this many randomly chosen entries are checked.
    rng:
        Seed for the entry subsampling.
    """
    generator = ensure_rng(rng)
    worst = 0.0
    checked = 0
    for param, grad in params_and_grads:
        flat_grad = np.asarray(grad, dtype=float).reshape(-1)
        if param.size == 0:
            continue
        if param.size > max_entries_per_param:
            indices = generator.choice(param.size, size=max_entries_per_param, replace=False)
        else:
            indices = np.arange(param.size)
        for index in indices:
            # Index through unravel_index so perturbations always hit the real
            # parameter array, even when it is not C-contiguous.
            multi_index = np.unravel_index(int(index), param.shape)
            original = float(param[multi_index])
            param[multi_index] = original + epsilon
            loss_plus = loss_fn()
            param[multi_index] = original - epsilon
            loss_minus = loss_fn()
            param[multi_index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            worst = max(worst, _relative_error(float(flat_grad[index]), numeric))
            checked += 1
    return GradientCheckResult(max_relative_error=worst, checked_entries=checked)


def numerical_gradient(
    loss_fn: Callable[[np.ndarray], float],
    point: np.ndarray,
    epsilon: float = 1e-5,
    indices: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Central-difference gradient of ``loss_fn`` with respect to ``point``.

    Only the entries in ``indices`` are filled when given; other entries are
    left as zero.  ``point`` is restored to its original values on return.
    """
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    flat_point = point.reshape(-1)
    flat_grad = grad.reshape(-1)
    if indices is None:
        indices = np.arange(flat_point.size)
    for index in indices:
        original = flat_point[index]
        flat_point[index] = original + epsilon
        plus = loss_fn(point)
        flat_point[index] = original - epsilon
        minus = loss_fn(point)
        flat_point[index] = original
        flat_grad[index] = (plus - minus) / (2.0 * epsilon)
    return grad
