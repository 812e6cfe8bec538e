"""Tests for the five model-selection schemes."""

import copy

import numpy as np
import pytest

from repro.bandit.context import UnivariateContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.exceptions import ConfigurationError
from repro.experiments.stages import build_schemes
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.base import SchemeRun
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


def _chains(run):
    """Each window's escalation chain as ``(layers, confident)`` arrays."""
    splits = np.cumsum(run.attempts)[:-1]
    return list(
        zip(np.split(run.attempt_layers, splits), np.split(run.attempt_confident, splits))
    )


class TestSchemeRun:
    @pytest.mark.parametrize("jitter_ms", [0.0, 0.25], ids=["plain", "jittery"])
    def test_escalation_log_matches_the_verdicts(self, univariate_hec, jitter_ms):
        """For all five schemes: one log entry per detection, and each
        window's last detection is the one that produced its verdict."""
        system, _deployments, _detectors, windows, _labels = univariate_hec
        system = copy.deepcopy(system)
        for link in system.topology.links:
            link.jitter_ms = jitter_ms
        extractor = _context_extractor(windows)
        policy = PolicyNetwork(context_dim=extractor.context_dim, n_actions=3,
                               hidden_units=8, seed=0)
        for scheme in build_schemes(system, policy, extractor):
            system.reset()
            run = scheme.run_batch(windows)
            assert isinstance(run, SchemeRun)
            n = windows.shape[0]
            for name in ("predictions", "layers", "delays_ms", "attempts"):
                assert getattr(run, name).shape == (n,), (scheme.name, name)
            assert run.attempts.min() >= 1
            assert run.attempts.sum() == len(run.attempt_layers) == len(run.attempt_confident)
            last = np.cumsum(run.attempts) - 1
            assert np.array_equal(run.attempt_layers[last], run.layers), scheme.name
            assert run.attempts.sum() == sum(c.requests for c in system.layer_counters.values())

    def test_concatenate_keeps_order(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        scheme = SuccessiveScheme(system)
        first, second = scheme.run_batch(windows[:3]), scheme.run_batch(windows[3:5])
        joined = SchemeRun.concatenate([first, second])
        assert joined.n == 5
        assert np.array_equal(joined.attempts, np.concatenate([first.attempts, second.attempts]))
        assert np.array_equal(
            joined.attempt_layers,
            np.concatenate([first.attempt_layers, second.attempt_layers]),
        )


class TestFixedLayerScheme:
    def test_names_match_paper(self, fresh_system):
        system, _detectors, _windows, _labels = fresh_system
        assert FixedLayerScheme(system, 0).name == "IoT Device"
        assert FixedLayerScheme(system, 1).name == "Edge"
        assert FixedLayerScheme(system, 2).name == "Cloud"

    def test_always_uses_configured_layer(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        scheme = FixedLayerScheme(system, 1)
        run = scheme.run_batch(windows[:5])
        assert run.layers.tolist() == [1] * 5
        assert system.layer_counters[1].requests == 5

    def test_run_fields(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        run = FixedLayerScheme(system, 0).run_batch(windows[:1])
        assert run.predictions.dtype == np.int64 and run.predictions[0] in (0, 1)
        assert run.delays_ms.dtype == np.float64 and run.delays_ms[0] > 0
        assert run.attempts.tolist() == [1] and run.attempt_layers.tolist() == [0]
        assert run.attempt_confident.dtype == bool

    def test_delay_ordering_iot_edge_cloud(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        delays = []
        for layer in range(3):
            system.reset()
            scheme = FixedLayerScheme(system, layer)
            delays.append(scheme.run_batch(windows[:4]).delays_ms.mean())
        assert delays[0] < delays[1] < delays[2]

    def test_invalid_layer(self, fresh_system):
        system, _detectors, _windows, _labels = fresh_system
        with pytest.raises(ConfigurationError):
            FixedLayerScheme(system, 7)


class TestSuccessiveScheme:
    def test_starts_at_iot(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        run = SuccessiveScheme(system).run_batch(windows[:1])
        assert run.attempt_layers[0] == 0

    def test_escalates_only_when_not_confident(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        run = SuccessiveScheme(system).run_batch(windows)
        for layers, confident in _chains(run):
            # Every attempt except the last must be unconfident (that is why it escalated).
            assert not confident[:-1].any()
            # Layers are visited bottom-up without skipping.
            assert layers.tolist() == list(range(layers[0], layers[-1] + 1))

    def test_final_layer_bounded_by_cloud(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        run = SuccessiveScheme(system).run_batch(windows)
        assert run.layers.max() < system.n_layers

    def test_escalation_accumulates_delay(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        run = SuccessiveScheme(system).run_batch(windows)
        escalated = run.delays_ms[run.attempts > 1]
        # The delay of an escalated window exceeds the pure IoT delay.
        assert np.all(escalated > system.execution_time_ms(0))

    def test_mean_delay_between_iot_and_cloud(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        system.reset()
        successive_delay = SuccessiveScheme(system).run_batch(windows).delays_ms.mean()
        system.reset()
        iot_delay = FixedLayerScheme(system, 0).run_batch(windows).delays_ms.mean()
        system.reset()
        cloud_delay = FixedLayerScheme(system, 2).run_batch(windows).delays_ms.mean()
        assert iot_delay <= successive_delay <= cloud_delay

    def test_invalid_start_layer(self, fresh_system):
        system, _detectors, _windows, _labels = fresh_system
        with pytest.raises(ConfigurationError):
            SuccessiveScheme(system, start_layer=9)

    def test_custom_start_layer(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        run = SuccessiveScheme(system, start_layer=1).run_batch(windows[:1])
        assert run.attempt_layers[0] == 1


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
        system, _detectors, windows, _labels = fresh_system
        extractor = _context_extractor(windows)
        policy = self._policy(extractor.context_dim, favored_action=1)
        scheme = AdaptiveScheme(system, policy, extractor)
        run = scheme.run_batch(windows[:6])
        # The nudged policy should pick the favoured layer most of the time.
        assert run.layers.tolist().count(1) >= 4

    def test_policy_overhead_added(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        extractor = _context_extractor(windows)
        policy = self._policy(extractor.context_dim, favored_action=0)
        system.reset()
        without = AdaptiveScheme(system, policy, extractor).run_batch(windows[:1])
        system.reset()
        with_overhead = AdaptiveScheme(
            system, policy, extractor, policy_overhead_ms=5.0
        ).run_batch(windows[:1])
        assert with_overhead.delays_ms[0] == pytest.approx(without.delays_ms[0] + 5.0)

    def test_routes_every_window_to_its_greedy_arm(self, fresh_system):
        """Inference is the arg-max: a rerun routes identically and the policy's
        generator is never drawn from."""
        system, _detectors, windows, _labels = fresh_system
        extractor = _context_extractor(windows)
        policy = self._policy(extractor.context_dim, seed=3)
        before = policy._rng.bit_generator.state
        first = AdaptiveScheme(system, policy, extractor).run_batch(windows)
        system.reset()
        second = AdaptiveScheme(system, policy, extractor).run_batch(windows)
        np.testing.assert_array_equal(
            first.attempt_layers, policy.select_actions(extractor.extract(windows))
        )
        np.testing.assert_array_equal(first.layers, second.layers)
        np.testing.assert_array_equal(first.predictions, second.predictions)
        np.testing.assert_array_equal(first.delays_ms, second.delays_ms)
        assert policy._rng.bit_generator.state == before

    def test_action_count_mismatch_rejected(self, fresh_system):
        system, _detectors, windows, _labels = fresh_system
        extractor = _context_extractor(windows)
        bad_policy = PolicyNetwork(context_dim=extractor.context_dim, n_actions=2, seed=0)
        with pytest.raises(ConfigurationError):
            AdaptiveScheme(system, bad_policy, extractor)

