"""Scheme evaluation: run a selection scheme over a test set and aggregate metrics.

This produces exactly the quantities of the paper's Table II: F1, accuracy,
mean end-to-end delay and cumulative reward per scheme, plus the per-layer
usage distribution that explains *why* a scheme achieves its delay.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.bandit.reward import RewardFunction
from repro.evaluation.metrics import accuracy_score, f1_score
from repro.exceptions import ShapeError
from repro.schemes.base import SchemeRun, SelectionScheme


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
    run: SchemeRun,
    labels: np.ndarray,
    reward_fn: Optional[RewardFunction] = None,
) -> SchemeEvaluation:
    """Aggregate a scheme's run against the ground-truth labels."""
    labels = np.asarray(labels, dtype=int)
    if run.n != labels.shape[0]:
        raise ShapeError(f"got a run of {run.n} windows for {labels.shape[0]} labels")
    predictions, delays, layers = run.predictions, run.delays_ms, run.layers

    correct = (predictions == labels).astype(float)
    if reward_fn is not None:
        rewards = reward_fn.batch(correct, delays)
        total_reward = float(rewards.sum())
        mean_reward = float(rewards.mean()) if rewards.size else 0.0
    else:
        total_reward = float("nan")
        mean_reward = float("nan")

    return SchemeEvaluation(
        scheme_name=scheme_name,
        f1=f1_score(predictions, labels),
        accuracy=accuracy_score(predictions, labels),
        mean_delay_ms=float(delays.mean()) if delays.size else 0.0,
        total_reward=total_reward,
        mean_reward=mean_reward,
        n_windows=int(labels.shape[0]),
        # Layers in order of first use.
        layer_usage=dict(Counter(layers.tolist())),
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
    run = scheme.run_batch(windows)
    return evaluate_outcomes(scheme.name, run, labels, reward_fn=reward_fn)
