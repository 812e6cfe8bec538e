"""Reward and delay-cost functions.

The paper's reward for choosing action ``a`` (i.e. HEC layer ``a``) on input
``x`` with context ``z`` is

``R(a, z) = accuracy(x) - C(a, x)``

where ``accuracy(x)`` is 1 when the selected layer's model classifies the
window correctly and 0 otherwise, and the cost maps the end-to-end delay into
an equivalent accuracy penalty in [0, 1):

``C(a, x) = alpha * t_e2e(x, a) / (1 + alpha * t_e2e(x, a))``      (Eq. 1)

``alpha`` is a tunable parameter (0.0005 for the univariate dataset and
0.00035 for the multivariate dataset in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_non_negative

#: Alpha used by the paper for the univariate (power) dataset.
PAPER_ALPHA_UNIVARIATE = 0.0005

#: Alpha used by the paper for the multivariate (MHEALTH) dataset.
PAPER_ALPHA_MULTIVARIATE = 0.00035


@dataclass(frozen=True)
class DelayCost:
    """The delay-to-accuracy cost ``C(t) = alpha*t / (1 + alpha*t)`` of Eq. (1)."""

    alpha: float = PAPER_ALPHA_UNIVARIATE

    def __post_init__(self) -> None:
        check_non_negative(self.alpha, "alpha")

    def batch(self, delays_ms: np.ndarray) -> np.ndarray:
        """Cost of each end-to-end delay in ``delays_ms`` (milliseconds; a
        scalar works too)."""
        delays_ms = np.asarray(delays_ms, dtype=float)
        if np.any(delays_ms < 0):
            raise ValueError("delays must be non-negative")
        scaled = self.alpha * delays_ms
        return scaled / (1.0 + scaled)


@dataclass(frozen=True)
class RewardFunction:
    """``R(a, z) = accuracy(x) - C(a, x)`` with the cost of Eq. (1)."""

    cost: DelayCost = DelayCost()

    def batch(self, correct: np.ndarray, delays_ms: np.ndarray) -> np.ndarray:
        """Reward of each (outcome, delay) pair of two matched arrays.

        ``correct`` is 1 where the selected layer's model classifies the window
        correctly and 0 otherwise (a float in [0, 1] is accepted for aggregated
        accuracies); ``delays_ms`` holds the end-to-end delays of the actions.
        """
        correct = np.asarray(correct, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float)
        if correct.shape != delays_ms.shape:
            raise ValueError(
                f"correct {correct.shape} and delays {delays_ms.shape} must have the same shape"
            )
        return correct - self.cost.batch(delays_ms)
