"""Fig. 2 — adaptive model selection with a policy network.

Fig. 2 of the paper sketches the policy network that maps contextual
information to a distribution over the K HEC layers.  This benchmark
exercises that component directly: it measures the cost of (re)training the
policy with REINFORCE on the pipeline's reward table and reports the training
curve (mean reward per episode) and the final action distribution — i.e. what
the figure's policy ends up doing.

Expected shape: the mean per-episode reward increases during training, and
the learned policy spreads its actions across layers instead of collapsing to
a single arm (context-dependent selection).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reinforce import ReinforceTrainer
from repro.evaluation.tables import format_table
from repro.experiments.stages import compute_reward_table

from .conftest import write_result


def _training_setup(result):
    """Contexts and reward table for retraining the policy from scratch."""
    windows = result.test_windows
    labels = result.test_labels
    contexts = result.context_extractor.extract(windows)
    detectors_by_layer = [result.detectors[tier] for tier in ("iot", "edge", "cloud")]
    rewards = compute_reward_table(result.system, detectors_by_layer, windows, labels, result.reward_fn)
    return contexts, rewards


@pytest.mark.benchmark(group="fig2-policy")
@pytest.mark.parametrize("dataset", ["univariate", "multivariate"])
def test_fig2_policy_training_curve(benchmark, univariate_result, multivariate_result, dataset):
    """Benchmark REINFORCE training and emit the reward-vs-episode curve."""
    result = univariate_result if dataset == "univariate" else multivariate_result
    contexts, rewards = _training_setup(result)

    def train():
        policy = PolicyNetwork(
            context_dim=contexts.shape[1], n_actions=3, hidden_units=100,
            learning_rate=5e-3, seed=1,
        )
        trainer = ReinforceTrainer(policy, rng=1)
        log = trainer.train(contexts, rewards, episodes=15)
        return trainer, log

    trainer, log = benchmark(train)

    evaluation = trainer.evaluate(contexts, rewards)
    curve_rows = [
        {"episode": episode, "mean_reward": reward, "baseline": baseline}
        for episode, (reward, baseline) in enumerate(
            zip(log.episode_mean_rewards, log.baselines), start=1
        )
    ]
    text = format_table(
        curve_rows,
        title=(
            f"Fig. 2 ({dataset}): policy-network training curve "
            f"(final greedy mean reward {evaluation['mean_reward']:.3f}, "
            f"regret {evaluation['mean_regret']:.3f}, "
            f"action distribution {np.round(evaluation['action_distribution'], 3).tolist()})"
        ),
    )
    write_result(f"fig2_policy_training_{dataset}", text)
    print("\n" + text)

    assert log.episode_mean_rewards[-1] >= log.episode_mean_rewards[0] - 0.05


@pytest.mark.benchmark(group="fig2-policy-inference")
def test_fig2_policy_inference_latency(benchmark, univariate_result):
    """Benchmark a single policy forward pass (it must stay IoT-device cheap)."""
    result = univariate_result
    context = result.context_extractor.extract(result.test_windows[:1])[0]

    action, probabilities = benchmark(lambda: result.policy.select_action(context, greedy=True))
    assert 0 <= action < 3
    assert probabilities.shape == (3,)
    text = format_table(
        [
            {
                "policy_parameters": result.policy.parameter_count(),
                "context_dim": result.policy.context_dim,
                "hidden_units": result.policy.hidden_units,
                "chosen_action": action,
            }
        ],
        title="Fig. 2: policy-network footprint (runs on the IoT device)",
    )
    write_result("fig2_policy_footprint", text)
    print("\n" + text)
