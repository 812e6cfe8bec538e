"""Ablation — value of the reinforcement-comparison baseline and of contextual selection.

Two design choices of the paper's bandit are ablated here:

1. **Reinforcement comparison** (the running-average reward baseline used to
   reduce gradient variance): the policy is trained with and without it and
   the training curves are compared.
2. **Contextual selection**: the trained policy network is compared against
   context-free bandit baselines (epsilon-greedy, UCB1, uniform random) on the
   same reward table.  Any advantage of the policy network is attributable to
   exploiting per-window context.

Expected shape: with the baseline enabled training converges at least as fast
(final mean reward no worse); the contextual policy achieves a mean reward at
least as high as every context-free baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandit.baselines import EpsilonGreedySelector, RandomSelector, UCBSelector
from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reinforce import ReinforcementComparisonBaseline, ReinforceTrainer
from repro.evaluation.tables import format_table
from repro.experiments.stages import compute_reward_table

from .conftest import write_result


def _reward_setup(result):
    windows, labels = result.test_windows, result.test_labels
    contexts = result.context_extractor.extract(windows)
    detectors_by_layer = [result.detectors[tier] for tier in ("iot", "edge", "cloud")]
    rewards = compute_reward_table(result.system, detectors_by_layer, windows, labels, result.reward_fn)
    return contexts, rewards


class _ZeroBaseline(ReinforcementComparisonBaseline):
    """A disabled baseline: always zero (plain REINFORCE without comparison)."""

    def value(self, action=None) -> float:  # noqa: D102 - trivial override
        return 0.0

    def update(self, reward, action=None) -> float:  # noqa: D102 - trivial override
        return 0.0


def _train(contexts, rewards, use_baseline: bool, episodes: int = 15, seed: int = 5):
    policy = PolicyNetwork(
        context_dim=contexts.shape[1], n_actions=3, hidden_units=100,
        learning_rate=5e-3, seed=seed,
    )
    baseline = ReinforcementComparisonBaseline() if use_baseline else _ZeroBaseline()
    trainer = ReinforceTrainer(policy, baseline=baseline, rng=seed)
    log = trainer.train(contexts, rewards, episodes=episodes)
    evaluation = trainer.evaluate(contexts, rewards)
    return log, evaluation


@pytest.mark.benchmark(group="ablation-baseline")
@pytest.mark.parametrize("use_baseline", [True, False], ids=["with-baseline", "without-baseline"])
def test_ablation_reinforcement_comparison(benchmark, univariate_result, use_baseline):
    """Benchmark policy training with and without the reinforcement-comparison baseline."""
    contexts, rewards = _reward_setup(univariate_result)
    log, evaluation = benchmark(lambda: _train(contexts, rewards, use_baseline))

    rows = [
        {
            "variant": "with reinforcement comparison" if use_baseline else "plain REINFORCE",
            "first_episode_mean_reward": log.episode_mean_rewards[0],
            "final_episode_mean_reward": log.episode_mean_rewards[-1],
            "greedy_mean_reward": evaluation["mean_reward"],
            "greedy_mean_regret": evaluation["mean_regret"],
        }
    ]
    text = format_table(rows, float_format="{:.4f}",
                        title="Ablation: reinforcement-comparison baseline (univariate)")
    write_result(f"ablation_baseline_{'on' if use_baseline else 'off'}", text)
    print("\n" + text)
    assert evaluation["mean_reward"] > 0.5


@pytest.mark.benchmark(group="ablation-contextual")
def test_ablation_contextual_vs_contextfree(benchmark, univariate_result):
    """Compare the contextual policy against context-free bandit baselines."""
    result = univariate_result
    contexts, rewards = _reward_setup(result)

    def run_all():
        outcomes = {}
        # Contextual policy (greedy, already trained by the pipeline).
        actions = result.policy.select_actions(contexts, greedy=True)
        outcomes["policy network (contextual)"] = float(
            rewards[np.arange(len(actions)), actions].mean()
        )
        # Context-free baselines play through the same reward table.
        for name, selector in (
            ("epsilon-greedy", EpsilonGreedySelector(3, epsilon=0.1, rng=0)),
            ("ucb1", UCBSelector(3, rng=0)),
            ("random", RandomSelector(3, rng=0)),
        ):
            chosen = selector.run(rewards)
            outcomes[name] = float(rewards[np.arange(len(chosen)), chosen].mean())
        # Oracle upper bound.
        outcomes["oracle (best per window)"] = float(rewards.max(axis=1).mean())
        return outcomes

    outcomes = benchmark(run_all)
    rows = [{"selector": name, "mean_reward": value} for name, value in outcomes.items()]
    text = format_table(rows, float_format="{:.4f}",
                        title="Ablation: contextual policy vs context-free bandits (univariate)")
    write_result("ablation_contextual", text)
    print("\n" + text)
    assert outcomes["policy network (contextual)"] >= outcomes["random"] - 1e-6
