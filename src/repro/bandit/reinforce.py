"""REINFORCE trainer for the contextual bandit (single-step MDP).

The model-selection problem is a contextual bandit: for each window the agent
observes a context, picks one action (an HEC layer), receives one reward, and
the episode ends.  The policy network is trained with the policy-gradient
(REINFORCE) update; to reduce the variance of the gradient and speed up
convergence, the paper uses *reinforcement comparison*, i.e. the reward is
compared against a running baseline reward before being applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.bandit.policy_network import PolicyNetwork
from repro.utils.rng import RngLike, ensure_rng


class ReinforcementComparisonBaseline:
    """Running-average reward baseline ``R(a~, z)`` used for reinforcement comparison.

    The baseline tracks one exponentially weighted average of observed
    rewards; the advantage fed to the policy gradient is ``R - baseline``.
    """

    def __init__(self, decay: float = 0.9) -> None:
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError(f"decay must lie in [0, 1), got {decay}")
        self.decay = float(decay)
        self._value = 0.0
        self._initialized = False

    def value(self) -> float:
        """Current baseline value (0.0 before the first update)."""
        return float(self._value)

    def update(self, reward: float) -> float:
        """Fold one observed reward into the baseline; returns the new value."""
        reward = float(reward)
        if not self._initialized:
            self._value = reward
            self._initialized = True
        else:
            self._value = self.decay * self._value + (1.0 - self.decay) * reward
        return float(self._value)


@dataclass
class BanditEpisodeLog:
    """Per-episode training log of the REINFORCE trainer."""

    episode_rewards: List[float] = field(default_factory=list)
    episode_mean_rewards: List[float] = field(default_factory=list)
    action_counts: List[np.ndarray] = field(default_factory=list)
    baselines: List[float] = field(default_factory=list)

    def record(self, total_reward: float, mean_reward: float, counts: np.ndarray,
               baseline: float) -> None:
        """Append one episode's aggregates."""
        self.episode_rewards.append(float(total_reward))
        self.episode_mean_rewards.append(float(mean_reward))
        self.action_counts.append(np.asarray(counts, dtype=int))
        self.baselines.append(float(baseline))

    @property
    def episodes(self) -> int:
        """Number of completed training episodes."""
        return len(self.episode_rewards)

    def final_action_distribution(self) -> np.ndarray:
        """Normalised action frequencies of the last episode."""
        if not self.action_counts:
            return np.array([])
        counts = self.action_counts[-1].astype(float)
        total = counts.sum()
        return counts / total if total > 0 else counts


class ReinforceTrainer:
    """Train a :class:`PolicyNetwork` on a pre-computed reward table.

    The trainer is decoupled from the HEC system: callers supply, per training
    window, the context vector and the reward of *every* candidate action
    (correctness of each layer's detector on that window combined with that
    layer's end-to-end delay through :class:`~repro.bandit.reward.RewardFunction`).
    During training only the sampled action's reward is revealed to the
    learner, exactly as in a bandit setting.
    """

    def __init__(
        self,
        policy: PolicyNetwork,
        baseline: Optional[ReinforcementComparisonBaseline] = None,
        entropy_weight: float = 0.01,
        rng: RngLike = 0,
    ) -> None:
        self.policy = policy
        self.baseline = baseline or ReinforcementComparisonBaseline()
        if entropy_weight < 0:
            raise ConfigurationError(f"entropy_weight must be non-negative, got {entropy_weight}")
        self.entropy_weight = float(entropy_weight)
        self._rng = ensure_rng(rng)
        self.log = BanditEpisodeLog()

    # -- training -------------------------------------------------------------------

    def train(
        self,
        contexts: np.ndarray,
        action_rewards: np.ndarray,
        episodes: int = 50,
        shuffle: bool = True,
        callback: Optional[Callable[[int, BanditEpisodeLog], None]] = None,
    ) -> BanditEpisodeLog:
        """Run ``episodes`` passes over the training contexts.

        Parameters
        ----------
        contexts:
            Array of shape ``(n_windows, context_dim)``.
        action_rewards:
            Array of shape ``(n_windows, n_actions)`` holding the reward each
            action would obtain on each window.
        episodes:
            Number of passes over the training set.
        shuffle:
            Whether to visit windows in random order each episode.
        callback:
            Optional per-episode hook ``callback(episode, log)``.
        """
        contexts = np.asarray(contexts, dtype=float)
        action_rewards = np.asarray(action_rewards, dtype=float)
        if contexts.ndim != 2:
            raise ShapeError(f"contexts must be 2-D, got shape {contexts.shape}")
        if action_rewards.shape != (contexts.shape[0], self.policy.n_actions):
            raise ShapeError(
                "action_rewards must have shape "
                f"({contexts.shape[0]}, {self.policy.n_actions}), got {action_rewards.shape}"
            )
        if episodes <= 0:
            raise ConfigurationError(f"episodes must be positive, got {episodes}")

        n = contexts.shape[0]
        for episode in range(episodes):
            order = self._rng.permutation(n) if shuffle else np.arange(n)
            total_reward, counts = self._train_episode(contexts, action_rewards, order)
            mean_reward = total_reward / n if n else 0.0
            self.log.record(total_reward, mean_reward, counts, self.baseline.value())
            if callback is not None:
                callback(episode, self.log)
        return self.log

    def _train_episode(
        self,
        contexts: np.ndarray,
        action_rewards: np.ndarray,
        order: np.ndarray,
    ) -> tuple:
        """One pass of per-sample updates: one optimizer step per window,
        the baseline updated after every step.

        Each update samples its action from the training forward it then
        backpropagates through: one policy forward per window.
        """
        total_reward = 0.0
        counts = np.zeros(self.policy.n_actions, dtype=int)
        for index in order:
            context = contexts[index]
            action, probabilities = self.policy.explore(context)
            reward = float(action_rewards[index, action])
            advantage = reward - self.baseline.value()
            self.policy.policy_gradient_step(
                context, action, advantage, entropy_weight=self.entropy_weight,
                probabilities=probabilities,
            )
            self.baseline.update(reward)
            total_reward += reward
            counts[action] += 1
        return total_reward, counts

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, contexts: np.ndarray, action_rewards: np.ndarray) -> dict:
        """Greedy-policy evaluation on a reward table.

        Returns mean/total reward, the chosen-action distribution, and the
        regret against the per-window best action.
        """
        contexts = np.asarray(contexts, dtype=float)
        action_rewards = np.asarray(action_rewards, dtype=float)
        actions = self.policy.select_actions(contexts)
        chosen = action_rewards[np.arange(len(actions)), actions]
        best = action_rewards.max(axis=1)
        counts = np.bincount(actions, minlength=self.policy.n_actions)
        return {
            "mean_reward": float(chosen.mean()) if len(chosen) else 0.0,
            "total_reward": float(chosen.sum()),
            "mean_regret": float((best - chosen).mean()) if len(chosen) else 0.0,
            "action_distribution": (counts / counts.sum()).tolist() if counts.sum() else [],
            "actions": actions,
        }
