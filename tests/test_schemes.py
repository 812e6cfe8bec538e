"""Tests for the five model-selection schemes."""

import numpy as np
import pytest

from repro.bandit.context import UnivariateContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.exceptions import ConfigurationError
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.base import SchemeOutcome
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme


@pytest.fixture()
def fresh_system(univariate_hec):
    """The shared univariate HEC system, reset before every test."""
    system, _deployments, detectors, test_windows, test_labels = univariate_hec
    system.reset()
    return system, detectors, test_windows, test_labels


def _context_extractor(test_windows):
    extractor = UnivariateContextExtractor(segments=7)
    extractor.fit(test_windows)
    return extractor


class TestFixedLayerScheme:
    def test_names_match_paper(self, fresh_system):
        system, _detectors, _windows, _labels = fresh_system
        assert FixedLayerScheme(system, 0).name == "IoT Device"
        assert FixedLayerScheme(system, 1).name == "Edge"
        assert FixedLayerScheme(system, 2).name == "Cloud"

    def test_always_uses_configured_layer(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        scheme = FixedLayerScheme(system, 1)
        outcomes = scheme.run_batch(windows[:5], labels[:5])
        assert all(outcome.layer == 1 for outcome in outcomes)
        assert system.layer_usage()[1] == 5

    def test_outcome_fields(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        scheme = FixedLayerScheme(system, 0)
        outcome = scheme.handle_window(windows[0], 0, ground_truth=int(labels[0]))
        assert isinstance(outcome, SchemeOutcome)
        assert outcome.prediction in (0, 1)
        assert outcome.ground_truth == int(labels[0])
        assert outcome.delay_ms > 0

    def test_delay_ordering_iot_edge_cloud(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        delays = []
        for layer in range(3):
            system.reset()
            scheme = FixedLayerScheme(system, layer)
            outcomes = scheme.run_batch(windows[:4], labels[:4])
            delays.append(np.mean([o.delay_ms for o in outcomes]))
        assert delays[0] < delays[1] < delays[2]

    def test_invalid_layer(self, fresh_system):
        system, _detectors, _windows, _labels = fresh_system
        with pytest.raises(ConfigurationError):
            FixedLayerScheme(system, 7)


class TestSuccessiveScheme:
    def test_starts_at_iot(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        scheme = SuccessiveScheme(system)
        outcome = scheme.handle_window(windows[0], 0, ground_truth=int(labels[0]))
        assert outcome.records[0].layer == 0

    def test_escalates_only_when_not_confident(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        scheme = SuccessiveScheme(system)
        outcomes = scheme.run_batch(windows, labels)
        for outcome in outcomes:
            # Every record except the last must be unconfident (that is why it escalated).
            for record in outcome.records[:-1]:
                assert not record.confident
            # Layers are visited bottom-up without skipping.
            layers = [record.layer for record in outcome.records]
            assert layers == list(range(layers[0], layers[-1] + 1))

    def test_final_layer_bounded_by_cloud(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        scheme = SuccessiveScheme(system)
        outcomes = scheme.run_batch(windows, labels)
        assert all(outcome.layer < system.n_layers for outcome in outcomes)

    def test_escalation_accumulates_delay(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        scheme = SuccessiveScheme(system)
        outcomes = scheme.run_batch(windows, labels)
        escalated = [o for o in outcomes if len(o.records) > 1]
        if escalated:  # delay of an escalated window exceeds the pure IoT delay
            iot_exec = system.execution_time_ms(0)
            assert all(o.delay_ms > iot_exec for o in escalated)

    def test_mean_delay_between_iot_and_cloud(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        system.reset()
        successive = SuccessiveScheme(system).run_batch(windows, labels)
        successive_delay = np.mean([o.delay_ms for o in successive])
        system.reset()
        iot_delay = np.mean([o.delay_ms for o in FixedLayerScheme(system, 0).run_batch(windows, labels)])
        system.reset()
        cloud_delay = np.mean([o.delay_ms for o in FixedLayerScheme(system, 2).run_batch(windows, labels)])
        assert iot_delay <= successive_delay <= cloud_delay

    def test_invalid_start_layer(self, fresh_system):
        system, _detectors, _windows, _labels = fresh_system
        with pytest.raises(ConfigurationError):
            SuccessiveScheme(system, start_layer=9)

    def test_custom_start_layer(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        scheme = SuccessiveScheme(system, start_layer=1)
        outcome = scheme.handle_window(windows[0], 0, ground_truth=int(labels[0]))
        assert outcome.records[0].layer == 1


class TestAdaptiveScheme:
    def _policy(self, context_dim, favored_action=None, seed=0):
        policy = PolicyNetwork(context_dim=context_dim, n_actions=3, hidden_units=8,
                               learning_rate=0.05, seed=seed)
        if favored_action is not None:
            # Nudge the policy towards one action so behaviour is predictable.
            context = np.zeros(context_dim)
            for _ in range(200):
                policy.policy_gradient_step(context, favored_action, advantage=1.0)
        return policy

    def test_uses_policy_choice(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        extractor = _context_extractor(windows)
        policy = self._policy(extractor.context_dim, favored_action=1)
        scheme = AdaptiveScheme(system, policy, extractor)
        outcomes = scheme.run_batch(windows[:6], labels[:6])
        # The nudged policy should pick the favoured layer most of the time.
        chosen = [o.layer for o in outcomes]
        assert chosen.count(1) >= 4

    def test_records_chosen_actions(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        extractor = _context_extractor(windows)
        policy = self._policy(extractor.context_dim)
        scheme = AdaptiveScheme(system, policy, extractor)
        scheme.run_batch(windows[:5], labels[:5])
        assert len(scheme.chosen_actions) == 5

    def test_policy_overhead_added(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        extractor = _context_extractor(windows)
        policy = self._policy(extractor.context_dim, favored_action=0)
        system.reset()
        without = AdaptiveScheme(system, policy, extractor).handle_window(windows[0], 0)
        system.reset()
        with_overhead = AdaptiveScheme(
            system, policy, extractor, policy_overhead_ms=5.0
        ).handle_window(windows[0], 0)
        assert with_overhead.delay_ms == pytest.approx(without.delay_ms + 5.0)

    def test_action_count_mismatch_rejected(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        extractor = _context_extractor(windows)
        bad_policy = PolicyNetwork(context_dim=extractor.context_dim, n_actions=2, seed=0)
        with pytest.raises(ConfigurationError):
            AdaptiveScheme(system, bad_policy, extractor)

    def test_non_greedy_mode_samples(self, fresh_system):
        system, _detectors, windows, labels = fresh_system
        extractor = _context_extractor(windows)
        policy = self._policy(extractor.context_dim)
        scheme = AdaptiveScheme(system, policy, extractor, greedy=False)
        scheme.run_batch(windows, labels)
        # Sampling from an untrained (nearly uniform) policy should hit >1 layer.
        assert len(set(scheme.chosen_actions)) > 1
