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

    The baseline tracks an exponentially weighted average of observed rewards;
    the advantage fed to the policy gradient is ``R - baseline``.  A per-action
    variant is supported (one running average per action), which is sometimes
    a better fit when action rewards have very different scales.
    """

    def __init__(self, decay: float = 0.9, per_action: bool = False, n_actions: int = 3) -> None:
        if not 0.0 <= decay < 1.0:
            raise ConfigurationError(f"decay must lie in [0, 1), got {decay}")
        self.decay = float(decay)
        self.per_action = bool(per_action)
        self.n_actions = int(n_actions)
        self._value = 0.0
        self._per_action_values = np.zeros(self.n_actions)
        self._initialized = False
        self._per_action_initialized = np.zeros(self.n_actions, dtype=bool)

    def value(self, action: Optional[int] = None) -> float:
        """Current baseline value (for ``action`` when per-action tracking is on)."""
        if self.per_action and action is not None:
            return float(self._per_action_values[action])
        return float(self._value)

    def update(self, reward: float, action: Optional[int] = None) -> float:
        """Fold one observed reward into the baseline; returns the new value."""
        reward = float(reward)
        if self.per_action and action is not None:
            if not self._per_action_initialized[action]:
                self._per_action_values[action] = reward
                self._per_action_initialized[action] = True
            else:
                self._per_action_values[action] = (
                    self.decay * self._per_action_values[action] + (1.0 - self.decay) * reward
                )
            return float(self._per_action_values[action])
        if not self._initialized:
            self._value = reward
            self._initialized = True
        else:
            self._value = self.decay * self._value + (1.0 - self.decay) * reward
        return float(self._value)

    def values(self, actions: Optional[np.ndarray] = None) -> np.ndarray:
        """Vectorised baseline lookup for a batch of actions.

        Uninitialised entries read as 0.0, matching what :meth:`value` returns
        for an action that has never been updated.
        """
        if actions is None or not self.per_action:
            n = 1 if actions is None else np.asarray(actions).shape[0]
            return np.full(n, self._value, dtype=float)
        actions = np.asarray(actions, dtype=int)
        return self._per_action_values[actions].astype(float)

    def _fold(self, value: float, rewards: np.ndarray) -> float:
        """Closed-form EWMA fold of ``rewards`` (in order) into ``value``."""
        k = rewards.shape[0]
        if k == 0:
            return float(value)
        weights = (1.0 - self.decay) * self.decay ** np.arange(k - 1, -1, -1)
        return float(self.decay**k * value + weights @ rewards)

    def update_batch(self, rewards: np.ndarray, actions: Optional[np.ndarray] = None) -> float:
        """Fold a batch of rewards into the baseline in one vectorised pass.

        Equivalent (up to floating-point associativity) to calling
        :meth:`update` once per ``(reward, action)`` pair in order: the
        exponentially weighted average is applied in closed form per action.
        Returns the new baseline value — the global value, or the mean over
        all per-action values when per-action tracking is on.
        """
        rewards = np.asarray(rewards, dtype=float).ravel()
        if rewards.size == 0:
            return self.value()
        if self.per_action and actions is not None:
            actions = np.asarray(actions, dtype=int).ravel()
            if actions.shape != rewards.shape:
                raise ConfigurationError(
                    f"actions and rewards must have the same length, got "
                    f"{actions.shape} and {rewards.shape}"
                )
            for action in np.unique(actions):
                action_rewards = rewards[actions == action]
                if not self._per_action_initialized[action]:
                    start, action_rewards = action_rewards[0], action_rewards[1:]
                    self._per_action_initialized[action] = True
                else:
                    start = self._per_action_values[action]
                self._per_action_values[action] = self._fold(start, action_rewards)
            return float(self._per_action_values.mean())
        if not self._initialized:
            start, rewards = rewards[0], rewards[1:]
            self._initialized = True
        else:
            start = self._value
        self._value = self._fold(start, rewards)
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
        batch_size: int = 1,
    ) -> None:
        self.policy = policy
        self.baseline = baseline or ReinforcementComparisonBaseline(n_actions=policy.n_actions)
        if entropy_weight < 0:
            raise ConfigurationError(f"entropy_weight must be non-negative, got {entropy_weight}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        self.entropy_weight = float(entropy_weight)
        self.batch_size = int(batch_size)
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
        batch_size: Optional[int] = None,
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
        batch_size:
            Minibatch size for the policy-gradient updates; defaults to the
            trainer's ``batch_size``.  ``1`` runs the original per-sample
            REINFORCE loop (one optimizer step per window, baseline updated
            after every step).  Larger values sample actions for a whole
            minibatch at once, compute all advantages against the baseline as
            of the start of the minibatch, and perform a single fused
            forward/backward/optimizer step per minibatch — the standard
            minibatched REINFORCE semantics, and the fast path.
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
        batch_size = self.batch_size if batch_size is None else int(batch_size)
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")

        n = contexts.shape[0]
        for episode in range(episodes):
            order = self._rng.permutation(n) if shuffle else np.arange(n)
            if batch_size == 1:
                total_reward, counts = self._train_episode_sequential(
                    contexts, action_rewards, order
                )
            else:
                total_reward, counts = self._train_episode_batched(
                    contexts, action_rewards, order, batch_size
                )
            mean_reward = total_reward / n if n else 0.0
            self.log.record(total_reward, mean_reward, counts, self.baseline.value())
            if callback is not None:
                callback(episode, self.log)
        return self.log

    def _train_episode_sequential(
        self,
        contexts: np.ndarray,
        action_rewards: np.ndarray,
        order: np.ndarray,
    ) -> tuple:
        """One pass with per-sample updates (the original REINFORCE loop).

        Each update samples its action from the training forward it then
        backpropagates through: one policy forward per window.
        """
        total_reward = 0.0
        counts = np.zeros(self.policy.n_actions, dtype=int)
        for index in order:
            context = contexts[index]
            action, probabilities = self.policy.explore(context)
            reward = float(action_rewards[index, action])
            baseline_value = self.baseline.value(action)
            advantage = reward - baseline_value
            self.policy.policy_gradient_step(
                context, action, advantage, entropy_weight=self.entropy_weight,
                probabilities=probabilities,
            )
            self.baseline.update(reward, action)
            total_reward += reward
            counts[action] += 1
        return total_reward, counts

    def _train_episode_batched(
        self,
        contexts: np.ndarray,
        action_rewards: np.ndarray,
        order: np.ndarray,
        batch_size: int,
    ) -> tuple:
        """One pass with minibatched updates (vectorised sampling and gradients)."""
        total_reward = 0.0
        counts = np.zeros(self.policy.n_actions, dtype=int)
        for start in range(0, order.shape[0], batch_size):
            batch_indices = order[start: start + batch_size]
            batch_contexts = contexts[batch_indices]
            actions, probabilities = self.policy.explore_batch(batch_contexts)
            rewards = action_rewards[batch_indices, actions]
            advantages = rewards - self.baseline.values(actions)
            self.policy.policy_gradient_step_batch(
                batch_contexts, actions, advantages, entropy_weight=self.entropy_weight,
                probabilities=probabilities,
            )
            self.baseline.update_batch(rewards, actions)
            total_reward += float(rewards.sum())
            counts += np.bincount(actions, minlength=self.policy.n_actions)
        return total_reward, counts

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self, contexts: np.ndarray, action_rewards: np.ndarray) -> dict:
        """Greedy-policy evaluation on a reward table.

        Returns mean/total reward, the chosen-action distribution, and the
        regret against the per-window best action.
        """
        contexts = np.asarray(contexts, dtype=float)
        action_rewards = np.asarray(action_rewards, dtype=float)
        actions = self.policy.select_actions(contexts, greedy=True)
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
