"""Tests for contextual feature extraction, the policy network and the reward function."""

import numpy as np
import pytest

from repro.bandit.context import EncoderContextExtractor, UnivariateContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reward import (
    PAPER_ALPHA_MULTIVARIATE,
    PAPER_ALPHA_UNIVARIATE,
    DelayCost,
    RewardFunction,
)
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError


class TestUnivariateContext:
    def test_feature_dimension(self):
        extractor = UnivariateContextExtractor(segments=7, normalize=False)
        windows = np.random.default_rng(0).normal(size=(5, 28))
        features = extractor.extract(windows)
        assert features.shape == (5, 28)
        assert extractor.context_dim == 28

    def test_features_are_per_segment_statistics(self):
        extractor = UnivariateContextExtractor(segments=2, normalize=False)
        window = np.array([[1.0, 3.0, -2.0, 4.0]])  # two segments of 2 samples
        features = extractor.extract(window)[0]
        mins, maxs, means, stds = features[:2], features[2:4], features[4:6], features[6:]
        np.testing.assert_allclose(mins, [1.0, -2.0])
        np.testing.assert_allclose(maxs, [3.0, 4.0])
        np.testing.assert_allclose(means, [2.0, 1.0])
        np.testing.assert_allclose(stds, [1.0, 3.0])

    def test_normalized_features_require_fit(self):
        extractor = UnivariateContextExtractor(segments=2)
        with pytest.raises(NotFittedError):
            extractor.extract(np.zeros((2, 4)))

    def test_normalized_features_zero_mean(self):
        extractor = UnivariateContextExtractor(segments=4)
        windows = np.random.default_rng(1).normal(size=(30, 16))
        extractor.fit(windows)
        features = extractor.extract(windows)
        np.testing.assert_allclose(features.mean(axis=0), 0.0, atol=1e-9)

    def test_indivisible_window_rejected(self):
        extractor = UnivariateContextExtractor(segments=7, normalize=False)
        with pytest.raises(ShapeError):
            extractor.extract(np.zeros((2, 30)))

    def test_1d_window_accepted(self):
        extractor = UnivariateContextExtractor(segments=2, normalize=False)
        assert extractor.extract(np.zeros(8)).shape == (1, 8)

    def test_invalid_segments(self):
        with pytest.raises(ConfigurationError):
            UnivariateContextExtractor(segments=0)

    def test_anomalous_window_has_distinct_context(self, power_scaled):
        train_windows, _test, _labels = power_scaled
        extractor = UnivariateContextExtractor(segments=7).fit(train_windows)
        normal_context = extractor.extract(train_windows[:1])
        corrupted = train_windows[:1].copy()
        corrupted[0, :24] += 5.0
        anomalous_context = extractor.extract(corrupted)
        assert not np.allclose(normal_context, anomalous_context)


class TestEncoderContext:
    def test_shape_matches_encoder_units(self, trained_seq2seq, mhealth_windows):
        extractor = EncoderContextExtractor(trained_seq2seq)
        features = extractor.extract(mhealth_windows.windows[:4])
        assert features.shape == (4, trained_seq2seq.units)
        assert extractor.context_dim == trained_seq2seq.units

    def test_deterministic(self, trained_seq2seq, mhealth_windows):
        extractor = EncoderContextExtractor(trained_seq2seq)
        a = extractor.extract(mhealth_windows.windows[:3])
        b = extractor.extract(mhealth_windows.windows[:3])
        np.testing.assert_array_equal(a, b)


class TestPolicyNetwork:
    def test_probabilities_are_distribution(self):
        policy = PolicyNetwork(context_dim=6, n_actions=3, hidden_units=8, seed=0)
        contexts = np.random.default_rng(0).normal(size=(10, 6))
        probs = policy.action_probabilities(contexts)
        assert probs.shape == (10, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_select_action_greedy_is_argmax(self):
        policy = PolicyNetwork(context_dim=4, n_actions=3, hidden_units=8, seed=0)
        context = np.random.default_rng(1).normal(size=4)
        action, probs = policy.select_action(context, greedy=True)
        assert action == int(np.argmax(probs))

    def test_select_actions_batch(self):
        policy = PolicyNetwork(context_dim=4, n_actions=3, hidden_units=8, seed=0)
        contexts = np.random.default_rng(2).normal(size=(20, 4))
        actions = policy.select_actions(contexts, greedy=True)
        assert actions.shape == (20,)
        assert np.all((actions >= 0) & (actions < 3))

    def test_sampled_actions_cover_support(self):
        policy = PolicyNetwork(context_dim=2, n_actions=3, hidden_units=4, seed=0)
        context = np.zeros(2)
        actions = {policy.select_action(context, greedy=False)[0] for _ in range(200)}
        assert len(actions) >= 2

    def test_policy_gradient_step_increases_chosen_probability(self):
        policy = PolicyNetwork(context_dim=3, n_actions=3, hidden_units=16,
                               learning_rate=0.05, seed=0)
        context = np.array([1.0, -0.5, 0.25])
        before = policy.action_probabilities(context)[0, 1]
        for _ in range(20):
            policy.policy_gradient_step(context, action=1, advantage=1.0)
        after = policy.action_probabilities(context)[0, 1]
        assert after > before

    def test_negative_advantage_decreases_probability(self):
        policy = PolicyNetwork(context_dim=3, n_actions=3, hidden_units=16,
                               learning_rate=0.05, seed=0)
        context = np.array([0.3, 0.3, -0.6])
        before = policy.action_probabilities(context)[0, 2]
        for _ in range(20):
            policy.policy_gradient_step(context, action=2, advantage=-1.0)
        after = policy.action_probabilities(context)[0, 2]
        assert after < before

    def test_contextual_discrimination_learnable(self):
        """The policy must be able to map different contexts to different actions."""
        policy = PolicyNetwork(context_dim=2, n_actions=2, hidden_units=16,
                               learning_rate=0.05, seed=0)
        rng = np.random.default_rng(0)
        context_a = np.array([1.0, 0.0])
        context_b = np.array([0.0, 1.0])
        for _ in range(150):
            context, best = (context_a, 0) if rng.random() < 0.5 else (context_b, 1)
            action, _ = policy.select_action(context, greedy=False)
            reward = 1.0 if action == best else 0.0
            policy.policy_gradient_step(context, action, advantage=reward - 0.5)
        assert policy.select_action(context_a, greedy=True)[0] == 0
        assert policy.select_action(context_b, greedy=True)[0] == 1

    def test_parameter_count_formula(self):
        policy = PolicyNetwork(context_dim=28, n_actions=3, hidden_units=100, seed=0)
        expected = (28 * 100 + 100) + (100 * 3 + 3)
        assert policy.parameter_count() == expected

    def test_weights_round_trip(self):
        policy = PolicyNetwork(context_dim=4, n_actions=3, hidden_units=8, seed=0)
        contexts = np.random.default_rng(3).normal(size=(5, 4))
        reference = policy.action_probabilities(contexts)
        clone = PolicyNetwork(context_dim=4, n_actions=3, hidden_units=8, seed=9)
        clone.set_weights(policy.get_weights())
        np.testing.assert_allclose(clone.action_probabilities(contexts), reference)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            PolicyNetwork(context_dim=0, n_actions=3)
        with pytest.raises(ConfigurationError):
            PolicyNetwork(context_dim=3, n_actions=1)
        with pytest.raises(ConfigurationError):
            PolicyNetwork(context_dim=3, n_actions=3, hidden_units=0)

    def test_bad_context_shape(self):
        policy = PolicyNetwork(context_dim=4, n_actions=3, seed=0)
        with pytest.raises(ShapeError):
            policy.action_probabilities(np.zeros((2, 5)))

    def test_bad_action_rejected(self):
        policy = PolicyNetwork(context_dim=4, n_actions=3, seed=0)
        with pytest.raises(ConfigurationError):
            policy.policy_gradient_step(np.zeros(4), action=5, advantage=1.0)

    def test_config(self):
        config = PolicyNetwork(context_dim=4, n_actions=3, hidden_units=7, seed=0).get_config()
        assert config["hidden_units"] == 7


class TestRewardFunction:
    def test_cost_monotonic_and_bounded(self):
        cost = DelayCost(alpha=0.0005)
        delays = np.array([0.0, 10.0, 100.0, 1000.0, 1e6])
        values = cost.batch(delays)
        assert values[0] == 0.0
        assert np.all(np.diff(values) > 0)
        assert np.all(values < 1.0)

    def test_paper_alpha_values(self):
        assert PAPER_ALPHA_UNIVARIATE == 0.0005
        assert PAPER_ALPHA_MULTIVARIATE == 0.00035

    def test_cost_formula_matches_equation_1(self):
        cost = DelayCost(alpha=0.0005)
        t = 257.43
        expected = 0.0005 * t / (1 + 0.0005 * t)
        assert cost.batch(t) == pytest.approx(expected)

    def test_reward_correct_minus_cost(self):
        reward = RewardFunction(cost=DelayCost(alpha=0.001))
        assert reward.batch(True, 0.0) == pytest.approx(1.0)
        assert reward.batch(False, 0.0) == pytest.approx(0.0)
        assert reward.batch(True, 1000.0) == pytest.approx(1.0 - 0.5)

    def test_reward_prefers_cheap_correct_action(self):
        reward = RewardFunction(cost=DelayCost(alpha=0.0005))
        iot = reward.batch(True, 12.4)
        cloud = reward.batch(True, 504.5)
        assert iot > cloud

    def test_reward_prefers_correct_over_fast_but_wrong(self):
        reward = RewardFunction(cost=DelayCost(alpha=0.0005))
        assert reward.batch(True, 504.5) > reward.batch(False, 12.4)

    def test_batch_shapes_validated(self):
        reward = RewardFunction()
        with pytest.raises(ValueError):
            reward.batch(np.zeros(3), np.zeros(4))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayCost().batch(-1.0)
        with pytest.raises(ValueError):
            DelayCost().batch(np.array([-1.0]))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            DelayCost(alpha=-0.1)

    def test_reward_table(self):
        reward = RewardFunction(cost=DelayCost(alpha=0.001))
        correct = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        delays = np.broadcast_to(np.array([10.0, 100.0, 1000.0]), (2, 3))
        table = reward.batch(correct, delays)
        assert table.shape == (2, 3)
        assert np.argmax(table[0]) == 0  # all correct -> cheapest wins
        assert np.argmax(table[1]) == 1  # IoT wrong -> edge wins

    def test_paper_reward_scale_univariate(self):
        """Paper Table II: IoT reward 48.39 over ~52 windows => ~0.93 per window."""
        reward = RewardFunction(cost=DelayCost(alpha=PAPER_ALPHA_UNIVARIATE))
        per_window = reward.batch(0.9368, 12.4)  # accuracy used as expected correctness
        assert per_window * 52 == pytest.approx(48.39, abs=0.5)
