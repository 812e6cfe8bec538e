"""Scheme evaluation: run a selection scheme over a test set and aggregate metrics.

This produces exactly the quantities of the paper's Table II: F1, accuracy,
mean end-to-end delay and cumulative reward per scheme, plus the per-layer
usage distribution that explains *why* a scheme achieves its delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bandit.reward import RewardFunction
from repro.evaluation.metrics import accuracy_score, f1_score
from repro.schemes.base import SchemeOutcome, SelectionScheme


@dataclass
class SchemeEvaluation:
    """Aggregated evaluation of one scheme on one test set."""

    scheme_name: str
    f1: float
    accuracy: float
    mean_delay_ms: float
    total_reward: float
    mean_reward: float
    n_windows: int
    layer_usage: Dict[int, int] = field(default_factory=dict)
    predictions: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    labels: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))
    delays_ms: np.ndarray = field(default_factory=lambda: np.array([]))
    layers: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def as_dict(self) -> dict:
        """A JSON-friendly summary (without the per-window arrays)."""
        return {
            "scheme": self.scheme_name,
            "f1": self.f1,
            "accuracy": self.accuracy,
            "accuracy_percent": 100.0 * self.accuracy,
            "mean_delay_ms": self.mean_delay_ms,
            "total_reward": self.total_reward,
            "mean_reward": self.mean_reward,
            "n_windows": self.n_windows,
            "layer_usage": {str(k): v for k, v in self.layer_usage.items()},
        }


def evaluate_outcomes(
    scheme_name: str,
    outcomes: List[SchemeOutcome],
    labels: np.ndarray,
    reward_fn: Optional[RewardFunction] = None,
) -> SchemeEvaluation:
    """Aggregate a list of scheme outcomes against the ground-truth labels."""
    labels = np.asarray(labels, dtype=int)
    if len(outcomes) != labels.shape[0]:
        raise ValueError(
            f"got {len(outcomes)} outcomes for {labels.shape[0]} labels"
        )
    predictions = np.asarray([outcome.prediction for outcome in outcomes], dtype=int)
    delays = np.asarray([outcome.delay_ms for outcome in outcomes], dtype=float)
    layers = np.asarray([outcome.layer for outcome in outcomes], dtype=int)

    correct = (predictions == labels).astype(float)
    if reward_fn is not None:
        rewards = reward_fn.batch(correct, delays)
        total_reward = float(rewards.sum())
        mean_reward = float(rewards.mean()) if rewards.size else 0.0
    else:
        total_reward = float("nan")
        mean_reward = float("nan")

    usage: Dict[int, int] = {}
    for layer in layers:
        usage[int(layer)] = usage.get(int(layer), 0) + 1

    return SchemeEvaluation(
        scheme_name=scheme_name,
        f1=f1_score(predictions, labels),
        accuracy=accuracy_score(predictions, labels),
        mean_delay_ms=float(delays.mean()) if delays.size else 0.0,
        total_reward=total_reward,
        mean_reward=mean_reward,
        n_windows=int(labels.shape[0]),
        layer_usage=usage,
        predictions=predictions,
        labels=labels,
        delays_ms=delays,
        layers=layers,
    )


def evaluate_scheme(
    scheme: SelectionScheme,
    windows: np.ndarray,
    labels: np.ndarray,
    reward_fn: Optional[RewardFunction] = None,
    reset_system: bool = True,
) -> SchemeEvaluation:
    """Run ``scheme`` over ``windows`` and aggregate the results.

    ``reset_system=True`` (default) clears the HEC system's counters, clock
    and link state before the run so evaluations of different schemes against
    the same system are independent.
    """
    if reset_system:
        scheme.system.reset()
    windows = np.asarray(windows, dtype=float)
    outcomes = scheme.run_batch(windows, np.asarray(labels, dtype=int))
    return evaluate_outcomes(scheme.name, outcomes, labels, reward_fn=reward_fn)
