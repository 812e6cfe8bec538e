"""Tests for the gradient-check utility and the shared pipeline plumbing."""

import numpy as np
import pytest

from repro.bandit.context import UnivariateContextExtractor
from repro.bandit.reward import DelayCost, RewardFunction
from repro.experiments.stages import (
    build_schemes,
    compute_reward_table,
    evaluate_all_schemes,
    per_layer_correctness,
    train_policy,
)
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme

from gradient_check import GradientCheckResult, check_gradients, numerical_gradient


class TestGradientCheckUtility:
    def test_correct_gradient_passes(self):
        w = np.array([1.0, -2.0, 3.0])
        grad = 2.0 * w  # analytic gradient of sum(w**2)
        result = check_gradients(lambda: float(np.sum(w**2)), [(w, grad)])
        assert result.passed(1e-6)
        assert result.checked_entries == 3

    def test_wrong_gradient_fails(self):
        w = np.array([1.0, -2.0, 3.0])
        wrong = np.zeros_like(w)
        result = check_gradients(lambda: float(np.sum(w**2)), [(w, wrong)])
        assert not result.passed(1e-4)

    def test_parameters_restored_after_check(self):
        w = np.array([0.5, 1.5])
        original = w.copy()
        check_gradients(lambda: float(np.sum(w**2)), [(w, 2.0 * w)])
        np.testing.assert_array_equal(w, original)

    def test_subsampling_limits_entries(self):
        w = np.random.default_rng(0).normal(size=(10, 10))
        grad = 2.0 * w
        result = check_gradients(
            lambda: float(np.sum(w**2)), [(w, grad)], max_entries_per_param=5
        )
        assert result.checked_entries == 5

    def test_empty_parameter_skipped(self):
        w = np.zeros((0,))
        result = check_gradients(lambda: 0.0, [(w, w)])
        assert result.checked_entries == 0
        assert result.max_relative_error == 0.0

    def test_result_passed_threshold(self):
        assert GradientCheckResult(max_relative_error=1e-6, checked_entries=1).passed(1e-4)
        assert not GradientCheckResult(max_relative_error=1e-2, checked_entries=1).passed(1e-4)

    def test_numerical_gradient_matches_analytic(self):
        point = np.array([1.0, 2.0, -1.0])
        grad = numerical_gradient(lambda p: float(np.sum(p**3)), point)
        np.testing.assert_allclose(grad, 3.0 * point**2, rtol=1e-5)

    def test_numerical_gradient_partial_indices(self):
        point = np.array([1.0, 2.0, 3.0])
        grad = numerical_gradient(lambda p: float(np.sum(p**2)), point, indices=np.array([1]))
        assert grad[0] == 0.0 and grad[2] == 0.0
        assert grad[1] == pytest.approx(4.0, rel=1e-5)


class TestPipelineCommon:
    def test_per_layer_correctness_shapes(self, univariate_hec):
        _system, _deployments, detectors, windows, labels = univariate_hec
        correctness = per_layer_correctness(
            detectors, windows, labels
        )
        assert len(correctness) == 3
        for entry in correctness:
            assert entry.shape == labels.shape
            assert set(np.unique(entry)).issubset({0.0, 1.0})

    def test_compute_reward_table_shape_and_range(self, univariate_hec):
        system, _deployments, detectors, windows, labels = univariate_hec
        reward_fn = RewardFunction(cost=DelayCost(alpha=0.0005))
        table = compute_reward_table(
            system, detectors, windows, labels, reward_fn
        )
        assert table.shape == (len(labels), 3)
        assert np.all(table <= 1.0) and np.all(table > -1.0)

    def test_reward_table_penalises_higher_layers_when_all_correct(self, univariate_hec):
        system, _deployments, detectors, windows, labels = univariate_hec
        reward_fn = RewardFunction(cost=DelayCost(alpha=0.0005))
        table = compute_reward_table(
            system, detectors, windows, labels, reward_fn
        )
        all_correct = np.flatnonzero(
            np.all(
                np.stack(
                    per_layer_correctness(
                        detectors, windows, labels
                    ),
                    axis=1,
                )
                == 1.0,
                axis=1,
            )
        )
        for index in all_correct[:5]:
            assert table[index, 0] > table[index, 1] > table[index, 2]

    def test_train_policy_returns_consistent_artifacts(self, univariate_hec):
        system, _deployments, detectors, windows, labels = univariate_hec
        extractor = UnivariateContextExtractor(segments=7).fit(windows)
        reward_fn = RewardFunction(cost=DelayCost(alpha=0.0005))
        policy, log, table = train_policy(
            system,
            detectors,
            extractor,
            windows,
            labels,
            reward_fn,
            episodes=5,
            seed=1,
        )
        assert policy.n_actions == system.n_layers
        assert policy.context_dim == extractor.context_dim
        assert log.episodes == 5
        assert table.shape == (len(labels), 3)

    def test_build_schemes_returns_five(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        extractor = UnivariateContextExtractor(segments=7).fit(windows)
        from repro.bandit.policy_network import PolicyNetwork

        policy = PolicyNetwork(context_dim=extractor.context_dim, n_actions=3, seed=0)
        schemes = build_schemes(system, policy, extractor)
        assert len(schemes) == 5
        assert isinstance(schemes[0], FixedLayerScheme)
        assert isinstance(schemes[3], SuccessiveScheme)
        assert isinstance(schemes[4], AdaptiveScheme)

    def test_evaluate_all_schemes_produces_panel_and_rows(self, univariate_hec):
        system, _deployments, detectors, windows, labels = univariate_hec
        extractor = UnivariateContextExtractor(segments=7).fit(windows)
        reward_fn = RewardFunction(cost=DelayCost(alpha=0.0005))
        policy, _log, _table = train_policy(
            system,
            detectors,
            extractor,
            windows,
            labels,
            reward_fn,
            episodes=3,
            seed=2,
        )
        evaluations, rows, panel = evaluate_all_schemes(
            "univariate", system, policy, extractor, windows, labels, reward_fn
        )
        assert set(evaluations) == {"IoT Device", "Edge", "Cloud", "Successive", "Our Method"}
        assert len(rows) == 5
        assert panel is not None
        assert len(panel.predictions) == len(labels)
