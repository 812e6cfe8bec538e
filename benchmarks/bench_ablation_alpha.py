"""Ablation — sensitivity of the adaptive scheme to the delay-cost parameter alpha.

The reward of Eq. (1) trades accuracy against delay through the tunable
parameter ``alpha`` (0.0005 for the univariate dataset and 0.00035 for the
multivariate dataset in the paper).  This ablation retrains the policy network
under different alpha values and reports how the learned behaviour moves along
the accuracy/delay front.

Expected shape: larger alpha penalises delay more strongly, so the learned
policy shifts traffic towards lower layers (lower mean delay, equal or lower
accuracy); smaller alpha shifts traffic towards the cloud.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reinforce import ReinforceTrainer
from repro.bandit.reward import DelayCost, RewardFunction
from repro.evaluation.experiment import evaluate_scheme
from repro.evaluation.tables import format_table
from repro.experiments.stages import compute_reward_table
from repro.schemes.adaptive import AdaptiveScheme

from .conftest import write_result

ALPHAS = [0.00005, 0.0005, 0.005]


def _train_adaptive_for_alpha(result, alpha: float, episodes: int = 20, seed: int = 3):
    """Retrain a fresh policy under the given alpha and evaluate the adaptive scheme."""
    reward_fn = RewardFunction(cost=DelayCost(alpha=alpha))
    windows, labels = result.test_windows, result.test_labels
    contexts = result.context_extractor.extract(windows)
    detectors_by_layer = [result.detectors[tier] for tier in ("iot", "edge", "cloud")]
    rewards = compute_reward_table(result.system, detectors_by_layer, windows, labels, reward_fn)
    policy = PolicyNetwork(
        context_dim=contexts.shape[1], n_actions=3, hidden_units=100,
        learning_rate=5e-3, seed=seed,
    )
    ReinforceTrainer(policy, rng=seed).train(contexts, rewards, episodes=episodes)
    scheme = AdaptiveScheme(result.system, policy, result.context_extractor)
    evaluation = evaluate_scheme(scheme, windows, labels, reward_fn=reward_fn)
    return evaluation


@pytest.mark.benchmark(group="ablation-alpha")
@pytest.mark.parametrize("alpha", ALPHAS)
def test_ablation_alpha_sweep(benchmark, univariate_result, alpha):
    """Benchmark retraining + evaluation of the adaptive scheme at one alpha value."""
    result = univariate_result
    evaluation = benchmark(lambda: _train_adaptive_for_alpha(result, alpha))
    assert 0.0 <= evaluation.accuracy <= 1.0

    # Re-evaluate the full sweep once (cheaply, reusing the benchmark run for the
    # current alpha) so the written table always covers all alphas.
    rows = []
    for value in ALPHAS:
        sweep_eval = evaluation if value == alpha else _train_adaptive_for_alpha(result, value)
        usage = sweep_eval.layer_usage
        total = max(sum(usage.values()), 1)
        rows.append(
            {
                "alpha": value,
                "accuracy_percent": 100.0 * sweep_eval.accuracy,
                "mean_delay_ms": sweep_eval.mean_delay_ms,
                "frac_iot": usage.get(0, 0) / total,
                "frac_edge": usage.get(1, 0) / total,
                "frac_cloud": usage.get(2, 0) / total,
            }
        )
    text = format_table(
        rows,
        float_format="{:.4f}",
        title="Ablation: alpha sweep (univariate) — larger alpha pushes traffic towards lower layers",
    )
    write_result(f"ablation_alpha_{alpha}", text)
    if alpha == ALPHAS[-1]:
        write_result("ablation_alpha", text)
        print("\n" + text)
        # Shape check: the most delay-averse policy must not be slower than the least averse one.
        assert rows[-1]["mean_delay_ms"] <= rows[0]["mean_delay_ms"] + 1e-6
