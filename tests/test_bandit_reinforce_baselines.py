"""Tests for the REINFORCE trainer, the reinforcement-comparison baseline and bandit baselines."""

import numpy as np
import pytest

from repro.bandit.baselines import EpsilonGreedySelector, RandomSelector, UCBSelector
from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reinforce import (
    BanditEpisodeLog,
    ReinforcementComparisonBaseline,
    ReinforceTrainer,
)
from repro.exceptions import ConfigurationError, ShapeError


class TestBaselineTracker:
    def test_first_update_initialises(self):
        baseline = ReinforcementComparisonBaseline(decay=0.9)
        assert baseline.value() == 0.0
        baseline.update(2.0)
        assert baseline.value() == pytest.approx(2.0)

    def test_exponential_averaging(self):
        baseline = ReinforcementComparisonBaseline(decay=0.5)
        baseline.update(1.0)
        baseline.update(0.0)
        assert baseline.value() == pytest.approx(0.5)

    def test_per_action_tracking(self):
        baseline = ReinforcementComparisonBaseline(decay=0.5, per_action=True, n_actions=3)
        baseline.update(1.0, action=0)
        baseline.update(0.0, action=2)
        assert baseline.value(0) == pytest.approx(1.0)
        assert baseline.value(2) == pytest.approx(0.0)
        assert baseline.value(1) == pytest.approx(0.0)

    def test_invalid_decay(self):
        with pytest.raises(ConfigurationError):
            ReinforcementComparisonBaseline(decay=1.0)


class TestEpisodeLog:
    def test_record_and_distribution(self):
        log = BanditEpisodeLog()
        log.record(10.0, 0.5, np.array([3, 1, 0]), 0.4)
        assert log.episodes == 1
        np.testing.assert_allclose(log.final_action_distribution(), [0.75, 0.25, 0.0])

    def test_empty_distribution(self):
        assert BanditEpisodeLog().final_action_distribution().size == 0


def _contextual_problem(n=120, seed=0):
    """A 2-context bandit where context determines the best of 3 actions."""
    rng = np.random.default_rng(seed)
    contexts = np.zeros((n, 2))
    rewards = np.zeros((n, 3))
    for i in range(n):
        if rng.random() < 0.5:
            contexts[i] = [1.0, 0.0]
            rewards[i] = [1.0, 0.2, 0.0]
        else:
            contexts[i] = [0.0, 1.0]
            rewards[i] = [0.0, 0.2, 1.0]
    return contexts, rewards


class TestReinforceTrainer:
    def test_training_improves_mean_reward(self):
        contexts, rewards = _contextual_problem()
        policy = PolicyNetwork(context_dim=2, n_actions=3, hidden_units=16,
                               learning_rate=0.05, seed=0)
        trainer = ReinforceTrainer(policy, entropy_weight=0.0, rng=0)
        log = trainer.train(contexts, rewards, episodes=15)
        assert log.episode_mean_rewards[-1] > log.episode_mean_rewards[0]

    def test_greedy_policy_learns_contextual_mapping(self):
        contexts, rewards = _contextual_problem()
        policy = PolicyNetwork(context_dim=2, n_actions=3, hidden_units=16,
                               learning_rate=0.05, seed=0)
        trainer = ReinforceTrainer(policy, rng=0)
        trainer.train(contexts, rewards, episodes=20)
        evaluation = trainer.evaluate(contexts, rewards)
        assert evaluation["mean_reward"] > 0.9
        assert evaluation["mean_regret"] < 0.1

    def test_callback_invoked_per_episode(self):
        contexts, rewards = _contextual_problem(n=20)
        policy = PolicyNetwork(context_dim=2, n_actions=3, hidden_units=8, seed=0)
        trainer = ReinforceTrainer(policy, rng=0)
        calls = []
        trainer.train(contexts, rewards, episodes=3, callback=lambda e, log: calls.append(e))
        assert calls == [0, 1, 2]

    def test_log_counts_sum_to_n(self):
        contexts, rewards = _contextual_problem(n=30)
        policy = PolicyNetwork(context_dim=2, n_actions=3, hidden_units=8, seed=0)
        trainer = ReinforceTrainer(policy, rng=0)
        log = trainer.train(contexts, rewards, episodes=2)
        assert log.action_counts[0].sum() == 30

    def test_shape_validation(self):
        policy = PolicyNetwork(context_dim=2, n_actions=3, hidden_units=8, seed=0)
        trainer = ReinforceTrainer(policy, rng=0)
        with pytest.raises(ShapeError):
            trainer.train(np.zeros((5, 2)), np.zeros((5, 2)), episodes=1)
        with pytest.raises(ShapeError):
            trainer.train(np.zeros(5), np.zeros((5, 3)), episodes=1)
        with pytest.raises(ConfigurationError):
            trainer.train(np.zeros((5, 2)), np.zeros((5, 3)), episodes=0)

    def test_negative_entropy_rejected(self):
        policy = PolicyNetwork(context_dim=2, n_actions=3, seed=0)
        with pytest.raises(ConfigurationError):
            ReinforceTrainer(policy, entropy_weight=-0.1)

    def test_evaluate_action_distribution_sums_to_one(self):
        contexts, rewards = _contextual_problem(n=40)
        policy = PolicyNetwork(context_dim=2, n_actions=3, hidden_units=8, seed=0)
        trainer = ReinforceTrainer(policy, rng=0)
        evaluation = trainer.evaluate(contexts, rewards)
        assert sum(evaluation["action_distribution"]) == pytest.approx(1.0)


# -- one policy forward per update, against the two-forward loops it replaced -----
#
# The references below are the trainer loops as they were when every update
# sampled from an inference forward (``select_action(s)``) and then ran a
# second, training forward inside ``policy_gradient_step(_batch)``.  Both
# forwards compute the same probabilities and the sampling draw is the same,
# so everything the trainer leaves behind must be *equal*.


class _TwoForwardTrainer(ReinforceTrainer):
    def _train_episode_sequential(self, contexts, action_rewards, order):
        total_reward = 0.0
        counts = np.zeros(self.policy.n_actions, dtype=int)
        for index in order:
            context = contexts[index]
            action, _probs = self.policy.select_action(context, greedy=False)
            reward = float(action_rewards[index, action])
            advantage = reward - self.baseline.value(action)
            self.policy.policy_gradient_step(
                context, action, advantage, entropy_weight=self.entropy_weight
            )
            self.baseline.update(reward, action)
            total_reward += reward
            counts[action] += 1
        return total_reward, counts

    def _train_episode_batched(self, contexts, action_rewards, order, batch_size):
        total_reward = 0.0
        counts = np.zeros(self.policy.n_actions, dtype=int)
        for start in range(0, order.shape[0], batch_size):
            batch_indices = order[start: start + batch_size]
            batch_contexts = contexts[batch_indices]
            actions = self.policy.select_actions(batch_contexts, greedy=False)
            rewards = action_rewards[batch_indices, actions]
            advantages = rewards - self.baseline.values(actions)
            self.policy.policy_gradient_step_batch(
                batch_contexts, actions, advantages, entropy_weight=self.entropy_weight
            )
            self.baseline.update_batch(rewards, actions)
            total_reward += float(rewards.sum())
            counts += np.bincount(actions, minlength=self.policy.n_actions)
        return total_reward, counts


def _trained(trainer_cls, context_dim, entropy_weight, per_action, batch_size):
    rng = np.random.default_rng(context_dim)
    contexts = rng.normal(size=(45, context_dim))
    rewards = rng.random((45, 3))
    policy = PolicyNetwork(context_dim=context_dim, hidden_units=24, seed=3)
    baseline = ReinforcementComparisonBaseline(per_action=per_action, n_actions=3)
    trainer = trainer_cls(
        policy, baseline=baseline, entropy_weight=entropy_weight, rng=5, batch_size=batch_size
    )
    trainer.train(contexts, rewards, episodes=3)
    return trainer


class TestOneForwardPerUpdate:
    @pytest.mark.parametrize("batch_size", [1, 8], ids=["per-sample", "minibatched"])
    @pytest.mark.parametrize("context_dim", [16, 28])
    @pytest.mark.parametrize("per_action", [False, True], ids=["global", "per-action"])
    @pytest.mark.parametrize("entropy_weight", [0.0, 0.01], ids=["no-entropy", "entropy"])
    def test_equals_the_two_forward_loop(self, entropy_weight, per_action, context_dim, batch_size):
        args = (context_dim, entropy_weight, per_action, batch_size)
        subject, reference = _trained(ReinforceTrainer, *args), _trained(_TwoForwardTrainer, *args)
        got, want = subject.policy.get_weights(), reference.policy.get_weights()
        assert got.keys() == want.keys()
        for key in want:
            for name in want[key]:
                np.testing.assert_array_equal(got[key][name], want[key][name])
        for field_name in ("episode_rewards", "episode_mean_rewards", "baselines"):
            assert getattr(subject.log, field_name) == getattr(reference.log, field_name)
        for got_counts, want_counts in zip(subject.log.action_counts, reference.log.action_counts):
            np.testing.assert_array_equal(got_counts, want_counts)
        assert subject.baseline.value() == reference.baseline.value()
        np.testing.assert_array_equal(
            subject.baseline.values(np.arange(3)), reference.baseline.values(np.arange(3))
        )
        assert subject.policy._rng.bit_generator.state == reference.policy._rng.bit_generator.state
        assert subject._rng.bit_generator.state == reference._rng.bit_generator.state

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_one_forward_per_update(self, batch_size, monkeypatch):
        policy = PolicyNetwork(context_dim=4, hidden_units=8, seed=0)
        forwards = []
        original = policy.model.forward
        monkeypatch.setattr(
            policy.model, "forward", lambda *a, **k: forwards.append(k) or original(*a, **k)
        )
        trainer = ReinforceTrainer(policy, rng=0, batch_size=batch_size)
        trainer.train(np.ones((20, 4)), np.ones((20, 3)), episodes=2)
        updates = policy.optimizer.iterations
        assert updates == 2 * -(-20 // batch_size)
        assert forwards == [{"training": True}] * updates

    def test_select_action_and_select_actions_are_unchanged_for_callers(self):
        policy = PolicyNetwork(context_dim=5, hidden_units=8, seed=1)
        twin = np.random.default_rng(0)
        policy._rng = np.random.default_rng(0)
        contexts = np.random.default_rng(9).normal(size=(12, 5))
        for context in contexts:
            action, probabilities = policy.select_action(context, greedy=False)
            expected = policy.model.predict(context[None, :])[0]
            np.testing.assert_array_equal(probabilities, expected)
            assert action == int(twin.choice(3, p=expected))
            assert policy.select_action(context, greedy=True)[0] == int(np.argmax(expected))
        sampled = policy.select_actions(contexts, greedy=False)
        expected = policy.model.predict(contexts)
        draws = twin.random((12, 1))
        np.testing.assert_array_equal(
            sampled, np.minimum((draws > np.cumsum(expected, axis=1)).sum(axis=1), 2)
        )
        np.testing.assert_array_equal(
            policy.select_actions(contexts, greedy=True), np.argmax(expected, axis=1)
        )
        assert policy._rng.bit_generator.state == twin.bit_generator.state

    def test_a_gradient_step_called_alone_runs_its_own_forward(self):
        context = np.linspace(-1.0, 1.0, 6)
        alone = PolicyNetwork(context_dim=6, hidden_units=8, seed=2)
        explored = PolicyNetwork(context_dim=6, hidden_units=8, seed=2)
        action, probabilities = explored.explore(context)
        assert alone.policy_gradient_step(context, action, 0.7, entropy_weight=0.01) == (
            explored.policy_gradient_step(
                context, action, 0.7, entropy_weight=0.01, probabilities=probabilities
            )
        )
        for layer_alone, layer_explored in zip(alone.model.layers, explored.model.layers):
            for name in layer_alone.params:
                np.testing.assert_array_equal(
                    layer_alone.params[name], layer_explored.params[name]
                )


class TestClassicalBaselines:
    def _stationary_rewards(self, n=300, best=2):
        rng = np.random.default_rng(0)
        means = np.array([0.2, 0.5, 0.8]) if best == 2 else np.array([0.8, 0.5, 0.2])
        return np.clip(rng.normal(means, 0.05, size=(n, 3)), 0, 1)

    def test_epsilon_greedy_finds_best_arm(self):
        rewards = self._stationary_rewards()
        selector = EpsilonGreedySelector(n_actions=3, epsilon=0.1, rng=0)
        actions = selector.run(rewards)
        assert np.argmax(np.bincount(actions[-100:], minlength=3)) == 2

    def test_ucb_finds_best_arm(self):
        rewards = self._stationary_rewards()
        selector = UCBSelector(n_actions=3, rng=0)
        actions = selector.run(rewards)
        assert np.argmax(np.bincount(actions[-100:], minlength=3)) == 2

    def test_ucb_plays_every_arm_first(self):
        selector = UCBSelector(n_actions=3, rng=0)
        first_actions = []
        for _ in range(3):
            action = selector.select_action()
            selector.update(action, 0.5)
            first_actions.append(action)
        assert sorted(first_actions) == [0, 1, 2]

    def test_random_selector_spreads_actions(self):
        selector = RandomSelector(n_actions=3, rng=0)
        actions = selector.run(np.zeros((300, 3)))
        counts = np.bincount(actions, minlength=3)
        assert np.all(counts > 50)

    def test_value_estimates_converge_to_means(self):
        rewards = self._stationary_rewards(n=600)
        selector = EpsilonGreedySelector(n_actions=3, epsilon=0.3, rng=0)
        selector.run(rewards)
        assert selector.value_estimates[2] > selector.value_estimates[0]

    def test_update_validates_action(self):
        selector = RandomSelector(n_actions=3, rng=0)
        with pytest.raises(ConfigurationError):
            selector.update(5, 1.0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            RandomSelector(n_actions=1)
        with pytest.raises(ConfigurationError):
            EpsilonGreedySelector(n_actions=3, epsilon=1.5)
        with pytest.raises(ConfigurationError):
            UCBSelector(n_actions=3, exploration=-1.0)
