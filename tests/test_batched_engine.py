"""Batch-size equivalence tests for the vectorised execution engine.

Every batched path must agree with the same path stepped one sample at a time
(the Keras wrapper/recurrent test idiom): the minibatched policy-gradient step
with a batch of one matches the per-sample step, one ``HECSystem.detect_batch``
call reproduces repeated single-window calls including all bookkeeping, the
scheme ``run_batch`` drivers reproduce themselves stepped through
``handle_window``, and the vectorised LSTM backward matches the seed
(per-timestep) implementation's gradients to tight tolerance.  What the deleted
sequential implementations (``detect_at``, ``SelectionScheme.run``) produced is
pinned by the recorded goldens in ``tests/test_schemes_goldens.py``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from repro.bandit.context import UnivariateContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reinforce import ReinforcementComparisonBaseline, ReinforceTrainer
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.lstm import LSTM
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme


# ---------------------------------------------------------------------------
# Vectorised LSTM backward vs the seed per-timestep implementation
# ---------------------------------------------------------------------------

def _reference_lstm_gradients(layer, inputs, grad_output, initial_state=None, grad_state=None):
    """The seed LSTM BPTT: per-timestep caches, np.concatenate, accumulated matmuls."""
    from repro.nn.activations import sigmoid as _sigmoid

    inputs = np.asarray(inputs, dtype=float)
    batch, timesteps, features = inputs.shape
    units = layer.units
    kernel = layer.params["kernel"]
    recurrent = layer.params["recurrent_kernel"]
    bias = layer.params["bias"]
    if layer.double_bias:
        bias = bias + layer.params["recurrent_bias"]

    if initial_state is not None:
        h, c = (np.asarray(s, dtype=float) for s in initial_state)
    else:
        h = np.zeros((batch, units))
        c = np.zeros((batch, units))

    caches = []
    for t in range(timesteps):
        x_t = inputs[:, t, :]
        z = x_t @ kernel + h @ recurrent + bias
        i = _sigmoid.forward(z[:, :units])
        f = _sigmoid.forward(z[:, units: 2 * units])
        g = np.tanh(z[:, 2 * units: 3 * units])
        o = _sigmoid.forward(z[:, 3 * units:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        caches.append(dict(x=x_t, h_prev=h, c_prev=c, i=i, f=f, g=g, o=o, tanh_c=tanh_c))
        h, c = o * tanh_c, c_new

    grad_output = np.asarray(grad_output, dtype=float)
    if layer.return_sequences:
        grad_h_seq = grad_output
    else:
        grad_h_seq = np.zeros((batch, timesteps, units))
        grad_h_seq[:, -1, :] = grad_output

    grad_kernel = np.zeros_like(kernel)
    grad_recurrent = np.zeros_like(recurrent)
    grad_bias = np.zeros(4 * units)
    grad_inputs = np.zeros((batch, timesteps, features))
    dh_next = np.zeros((batch, units))
    dc_next = np.zeros((batch, units))
    if grad_state is not None:
        dh_next = dh_next + np.asarray(grad_state[0], dtype=float)
        dc_next = dc_next + np.asarray(grad_state[1], dtype=float)

    for t in range(timesteps - 1, -1, -1):
        cache = caches[t]
        dh = grad_h_seq[:, t, :] + dh_next
        do = dh * cache["tanh_c"]
        dc = dc_next + dh * cache["o"] * (1.0 - cache["tanh_c"] ** 2)
        di = dc * cache["g"]
        df = dc * cache["c_prev"]
        dg = dc * cache["i"]
        dz = np.concatenate(
            [
                di * cache["i"] * (1.0 - cache["i"]),
                df * cache["f"] * (1.0 - cache["f"]),
                dg * (1.0 - cache["g"] ** 2),
                do * cache["o"] * (1.0 - cache["o"]),
            ],
            axis=1,
        )
        grad_kernel += cache["x"].T @ dz
        grad_recurrent += cache["h_prev"].T @ dz
        grad_bias += dz.sum(axis=0)
        grad_inputs[:, t, :] = dz @ kernel.T
        dh_next = dz @ recurrent.T
        dc_next = dc * cache["f"]

    grad_kernel += layer.kernel_regularizer.gradient(kernel)
    return {
        "kernel": grad_kernel,
        "recurrent_kernel": grad_recurrent,
        "bias": grad_bias,
        "inputs": grad_inputs,
        "initial_state": (dh_next, dc_next),
    }


class TestVectorizedLSTMBackward:
    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("double_bias", [False, True])
    def test_matches_seed_implementation(self, return_sequences, double_bias):
        rng = np.random.default_rng(42)
        batch, timesteps, features, units = 5, 7, 4, 6
        layer = LSTM(
            units,
            return_sequences=return_sequences,
            double_bias=double_bias,
            kernel_regularizer=1e-3,
        )
        layer.set_rng(np.random.default_rng(0))
        inputs = rng.normal(size=(batch, timesteps, features))
        outputs = layer.forward(inputs, training=True)
        grad_output = rng.normal(size=outputs.shape)

        grad_inputs = layer.backward(grad_output)
        reference = _reference_lstm_gradients(layer, inputs, grad_output)

        assert_allclose(layer.grads["kernel"], reference["kernel"], atol=1e-10)
        assert_allclose(layer.grads["recurrent_kernel"], reference["recurrent_kernel"], atol=1e-10)
        assert_allclose(layer.grads["bias"], reference["bias"], atol=1e-10)
        assert_allclose(grad_inputs, reference["inputs"], atol=1e-10)
        if double_bias:
            assert_allclose(layer.grads["recurrent_bias"], reference["bias"], atol=1e-10)

    def test_matches_seed_implementation_with_states(self):
        """Initial-state and state-gradient plumbing (the seq2seq decoder path)."""
        rng = np.random.default_rng(7)
        batch, timesteps, features, units = 3, 5, 4, 6
        layer = LSTM(units, return_sequences=True)
        layer.set_rng(np.random.default_rng(1))
        layer.build(features)
        inputs = rng.normal(size=(batch, timesteps, features))
        initial_state = (rng.normal(size=(batch, units)), rng.normal(size=(batch, units)))
        grad_state = (rng.normal(size=(batch, units)), rng.normal(size=(batch, units)))

        outputs = layer.forward(inputs, training=True, initial_state=initial_state)
        grad_output = rng.normal(size=outputs.shape)
        grad_inputs = layer.backward(grad_output, grad_state=grad_state)
        reference = _reference_lstm_gradients(
            layer, inputs, grad_output, initial_state=initial_state, grad_state=grad_state
        )

        assert_allclose(layer.grads["kernel"], reference["kernel"], atol=1e-10)
        assert_allclose(layer.grads["recurrent_kernel"], reference["recurrent_kernel"], atol=1e-10)
        assert_allclose(layer.grads["bias"], reference["bias"], atol=1e-10)
        assert_allclose(grad_inputs, reference["inputs"], atol=1e-10)
        assert layer.grad_initial_state is not None
        assert_allclose(layer.grad_initial_state[0], reference["initial_state"][0], atol=1e-10)
        assert_allclose(layer.grad_initial_state[1], reference["initial_state"][1], atol=1e-10)


# ---------------------------------------------------------------------------
# Batched policy-gradient step
# ---------------------------------------------------------------------------

def _fresh_policy(seed=0, context_dim=6, **kwargs):
    return PolicyNetwork(context_dim=context_dim, n_actions=3, hidden_units=12,
                         learning_rate=1e-2, seed=seed, **kwargs)


class TestPolicyGradientStepBatch:
    def test_batch_of_one_matches_single_step(self):
        rng = np.random.default_rng(0)
        context = rng.normal(size=6)
        single = _fresh_policy(seed=3)
        batched = _fresh_policy(seed=3)

        log_prob = single.policy_gradient_step(context, 1, advantage=0.7, entropy_weight=0.01)
        log_probs = batched.policy_gradient_step_batch(
            context[None, :], np.array([1]), np.array([0.7]), entropy_weight=0.01
        )
        assert log_probs.shape == (1,)
        assert log_probs[0] == pytest.approx(log_prob, abs=1e-12)
        for key, weights in single.get_weights().items():
            for name, value in weights.items():
                assert_allclose(batched.get_weights()[key][name], value, atol=1e-12)

    def test_batch_gradient_is_sum_of_per_sample_gradients(self):
        rng = np.random.default_rng(1)
        contexts = rng.normal(size=(5, 6))
        actions = np.array([0, 2, 1, 0, 1])
        advantages = rng.normal(size=5)

        policy = _fresh_policy(seed=5)

        def gradients(ctx, act, adv):
            probabilities = policy.model.forward(np.atleast_2d(ctx), training=True)
            ctx2 = np.atleast_2d(ctx)
            act = np.atleast_1d(act)
            adv = np.atleast_1d(adv)
            rows = np.arange(ctx2.shape[0])
            chosen = np.clip(probabilities[rows, act], 1e-12, 1.0)
            grad = np.zeros_like(probabilities)
            grad[rows, act] = -adv / chosen
            policy.model.backward(grad)
            return [g.copy() for _p, g in policy.model.parameters_and_gradients()]

        batch_grads = gradients(contexts, actions, advantages)
        summed = None
        for index in range(5):
            sample = gradients(contexts[index], actions[index], advantages[index])
            summed = sample if summed is None else [s + g for s, g in zip(summed, sample)]
        for got, expected in zip(batch_grads, summed):
            assert_allclose(got, expected, atol=1e-10)

    def test_shape_and_range_validation(self):
        policy = _fresh_policy()
        contexts = np.zeros((3, 6))
        with pytest.raises(ShapeError):
            policy.policy_gradient_step_batch(contexts, np.array([0, 1]), np.zeros(3))
        with pytest.raises(ShapeError):
            policy.policy_gradient_step_batch(contexts, np.array([0, 1, 2]), np.zeros(2))
        with pytest.raises(ConfigurationError):
            policy.policy_gradient_step_batch(contexts, np.array([0, 1, 3]), np.zeros(3))

    def test_sampled_actions_always_in_range(self):
        """The inverse-transform sampler must clip the fp edge case to K-1."""
        policy = _fresh_policy(seed=11)

        class _EdgeRng:
            def random(self, shape):
                return np.full(shape, 1.0 - 1e-16)

        probabilities = np.array([[0.3, 0.3, 0.4 - 1e-12]])
        policy.action_probabilities = lambda contexts: probabilities
        policy._rng = _EdgeRng()
        actions = policy.select_actions(np.zeros((1, 6)), greedy=False)
        assert actions[0] == policy.n_actions - 1


# ---------------------------------------------------------------------------
# Vectorised baseline updates
# ---------------------------------------------------------------------------

class TestBaselineUpdateBatch:
    @pytest.mark.parametrize("per_action", [False, True])
    def test_matches_sequential_updates(self, per_action):
        rng = np.random.default_rng(2)
        rewards = rng.normal(size=40)
        actions = rng.integers(0, 3, size=40)

        sequential = ReinforcementComparisonBaseline(decay=0.9, per_action=per_action)
        batched = ReinforcementComparisonBaseline(decay=0.9, per_action=per_action)
        for reward, action in zip(rewards, actions):
            sequential.update(float(reward), int(action))
        batched.update_batch(rewards, actions)

        for action in range(3):
            assert batched.value(action) == pytest.approx(sequential.value(action), abs=1e-12)
        assert batched.value() == pytest.approx(sequential.value(), abs=1e-12)

    def test_matches_sequential_updates_across_chunks(self):
        """Folding the same stream in several minibatches gives the same values."""
        rng = np.random.default_rng(3)
        rewards = rng.normal(size=33)
        actions = rng.integers(0, 3, size=33)
        sequential = ReinforcementComparisonBaseline(decay=0.8, per_action=True)
        batched = ReinforcementComparisonBaseline(decay=0.8, per_action=True)
        for reward, action in zip(rewards, actions):
            sequential.update(float(reward), int(action))
        for start in range(0, 33, 8):
            batched.update_batch(rewards[start: start + 8], actions[start: start + 8])
        for action in range(3):
            assert batched.value(action) == pytest.approx(sequential.value(action), abs=1e-12)

    def test_values_vectorised_lookup(self):
        baseline = ReinforcementComparisonBaseline(decay=0.9, per_action=True)
        baseline.update(2.0, 1)
        values = baseline.values(np.array([0, 1, 1, 2]))
        assert_allclose(values, [0.0, 2.0, 2.0, 0.0])
        scalar = ReinforcementComparisonBaseline(decay=0.9)
        scalar.update(3.0)
        assert_allclose(scalar.values(np.array([0, 2])), [3.0, 3.0])

    def test_empty_batch_is_noop(self):
        baseline = ReinforcementComparisonBaseline(decay=0.9)
        baseline.update(1.5)
        assert baseline.update_batch(np.array([])) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Minibatched REINFORCE training
# ---------------------------------------------------------------------------

class TestMinibatchedTrainer:
    def _task(self, n=96, context_dim=4, seed=0):
        """A contextual task where the best action depends on the context sign."""
        rng = np.random.default_rng(seed)
        contexts = rng.normal(size=(n, context_dim))
        rewards = np.zeros((n, 3))
        best = (contexts[:, 0] > 0).astype(int) * 2
        rewards[np.arange(n), best] = 1.0
        return contexts, rewards

    def test_batched_training_learns(self):
        contexts, rewards = self._task()
        policy = _fresh_policy(seed=0, context_dim=4)
        trainer = ReinforceTrainer(policy, rng=0, batch_size=32)
        log = trainer.train(contexts, rewards, episodes=30)
        assert log.episodes == 30
        assert log.episode_mean_rewards[-1] > log.episode_mean_rewards[0]
        evaluation = trainer.evaluate(contexts, rewards)
        assert evaluation["mean_reward"] > 0.6

    def test_batched_and_sequential_reach_similar_reward(self):
        """Stochastic equivalence: both paths learn the same task comparably."""
        contexts, rewards = self._task()
        sequential = ReinforceTrainer(_fresh_policy(seed=0, context_dim=4), rng=0, batch_size=1)
        batched = ReinforceTrainer(_fresh_policy(seed=0, context_dim=4), rng=0, batch_size=32)
        sequential.train(contexts, rewards, episodes=20)
        batched.train(contexts, rewards, episodes=20)
        mean_sequential = sequential.evaluate(contexts, rewards)["mean_reward"]
        mean_batched = batched.evaluate(contexts, rewards)["mean_reward"]
        assert abs(mean_sequential - mean_batched) < 0.3

    def test_episode_bookkeeping_matches_sequential_shape(self):
        contexts, rewards = self._task(n=37)
        trainer = ReinforceTrainer(_fresh_policy(seed=1, context_dim=4), rng=1, batch_size=8)
        log = trainer.train(contexts, rewards, episodes=3)
        for counts in log.action_counts:
            assert counts.sum() == 37

    def test_invalid_batch_size_rejected(self):
        policy = _fresh_policy(context_dim=4)
        with pytest.raises(ConfigurationError):
            ReinforceTrainer(policy, batch_size=0)
        trainer = ReinforceTrainer(policy)
        contexts, rewards = self._task(n=8)
        with pytest.raises(ConfigurationError):
            trainer.train(contexts, rewards, episodes=1, batch_size=-2)


# ---------------------------------------------------------------------------
# HECSystem.detect_batch vs repeated single-window calls
# ---------------------------------------------------------------------------

def _record_exact(record):
    return (
        record.window_index,
        record.layer,
        record.prediction,
        record.confident,
        record.ground_truth,
    )


def _record_floats(record):
    return (record.anomaly_score, record.delay_ms)


def _system_state(system, layer):
    return (
        system.clock.now_ms,
        {link.name: (link.transferred_bytes, link.transfer_count)
         for link in system.topology.links},
        system.layer_counters[layer].total_delay_ms,
    )


class TestDetectBatch:
    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_matches_repeated_single_window_calls(self, univariate_hec, layer):
        system, _deployments, _detectors, windows, labels = univariate_hec
        batch = windows[:10]
        truths = labels[:10]

        system.reset()
        stepped = [
            system.detect_batch(layer, batch[i][None, ...], ground_truths=truths[i:i + 1])[0]
            for i in range(batch.shape[0])
        ]
        stepped_state = _system_state(system, layer)

        system.reset()
        batched = system.detect_batch(layer, batch, ground_truths=truths)
        batched_state = _system_state(system, layer)

        assert len(batched) == len(stepped)
        for record_a, record_b in zip(stepped, batched):
            assert _record_exact(record_a) == _record_exact(record_b)
            assert _record_floats(record_a) == pytest.approx(_record_floats(record_b))
        assert stepped_state[0] == pytest.approx(batched_state[0])
        assert stepped_state[1] == batched_state[1]
        assert stepped_state[2] == pytest.approx(batched_state[2])

    def test_empty_batch(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        assert system.detect_batch(0, windows[:0]) == []

    def test_shape_validation(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        with pytest.raises(ShapeError):
            system.detect_batch(0, windows[0])  # single window, not a batch
        with pytest.raises(ShapeError):
            system.detect_batch(0, windows[:3], ground_truths=labels[:2])
        with pytest.raises(ShapeError):
            system.detect_batch(0, windows[:3], escalated_ms=np.zeros(1))

    def test_escalation_merges_per_window(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        system.reset()
        system.topology.warm_links()
        previous = system.detect_batch(0, windows[:2])
        plain = system.detect_batch(1, windows[:2])
        escalated = system.detect_batch(
            1, windows[:2], escalated_ms=[record.delay_ms for record in previous]
        )
        for before, alone, after in zip(previous, plain, escalated):
            assert after.delay_ms == pytest.approx(alone.delay_ms + before.delay_ms)


# ---------------------------------------------------------------------------
# Scheme run_batch vs itself stepped through handle_window
# ---------------------------------------------------------------------------

def _outcome_signature(outcomes):
    return [
        (
            outcome.window_index,
            outcome.prediction,
            outcome.layer,
            outcome.delay_ms,
            outcome.ground_truth,
            len(outcome.records),
        )
        for outcome in outcomes
    ]


def _stepped(scheme, windows, labels):
    return [
        scheme.handle_window(windows[index], index, ground_truth=int(labels[index]))
        for index in range(windows.shape[0])
    ]


def _untrained_policy(windows):
    extractor = UnivariateContextExtractor(segments=7)
    extractor.fit(windows)
    policy = PolicyNetwork(context_dim=extractor.context_dim, n_actions=3,
                           hidden_units=8, seed=0)
    return policy, extractor


class TestSchemeRunBatchEquivalence:
    """One driver at two batch sizes: all windows at once vs one at a time."""

    def test_fixed_scheme(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        for layer in range(system.n_layers):
            system.reset()
            stepped = _stepped(FixedLayerScheme(system, layer), windows, labels)
            system.reset()
            batched = FixedLayerScheme(system, layer).run_batch(windows, labels)
            assert _outcome_signature(batched) == pytest.approx(_outcome_signature(stepped))

    def test_successive_scheme(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        system.reset()
        stepped = _stepped(SuccessiveScheme(system), windows, labels)
        system.reset()
        batched = SuccessiveScheme(system).run_batch(windows, labels)
        assert _outcome_signature(batched) == pytest.approx(_outcome_signature(stepped))
        # The per-window escalation chains must match layer by layer.
        for outcome_a, outcome_b in zip(stepped, batched):
            assert [r.layer for r in outcome_a.records] == [r.layer for r in outcome_b.records]
            assert [r.confident for r in outcome_a.records] == [
                r.confident for r in outcome_b.records
            ]

    def test_adaptive_scheme_greedy(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        system.reset()
        stepped = _stepped(AdaptiveScheme(system, policy, extractor), windows, labels)
        system.reset()
        batched_scheme = AdaptiveScheme(system, policy, extractor)
        batched = batched_scheme.run_batch(windows, labels)
        assert _outcome_signature(batched) == pytest.approx(_outcome_signature(stepped))
        assert len(batched_scheme.chosen_actions) == windows.shape[0]

    def test_first_window_to_cross_a_link_pays_its_setup(self, univariate_hec):
        """Grouping by layer must not move connection setup off the window
        that, in arrival order, opens the connection."""
        system, _deployments, _detectors, windows, labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        policy.select_actions = lambda contexts, greedy=True: np.array([2, 1, 1, 0])[
            : len(contexts)
        ]
        system.reset()
        batched = AdaptiveScheme(system, policy, extractor).run_batch(windows[:4], labels[:4])
        setup = sum(link.connection_setup_ms for link in system.topology.links)
        assert setup > 0
        shape = windows.shape[1:]
        assert [outcome.delay_ms for outcome in batched] == pytest.approx(
            [
                system.expected_delay_ms(2, shape) + setup,  # opens both links
                system.expected_delay_ms(1, shape),
                system.expected_delay_ms(1, shape),
                system.expected_delay_ms(0, shape),
            ]
        )

    def test_adaptive_scheme_policy_overhead(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        system.reset()
        plain = AdaptiveScheme(system, policy, extractor).run_batch(windows[:4], labels[:4])
        system.reset()
        overhead = AdaptiveScheme(
            system, policy, extractor, policy_overhead_ms=5.0
        ).run_batch(windows[:4], labels[:4])
        for outcome_a, outcome_b in zip(plain, overhead):
            assert outcome_b.delay_ms == pytest.approx(outcome_a.delay_ms + 5.0)

    def test_jittery_links_step_window_by_window(self, univariate_hec, monkeypatch):
        """Grouped batching would reorder jitter draws, so on jittery links
        run_batch feeds itself one window at a time, in arrival order."""
        system, _deployments, _detectors, windows, labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        link = system.topology.links[0]
        original_jitter = link.jitter_ms
        link.jitter_ms = 1.0
        try:
            for scheme in (
                SuccessiveScheme(system),
                AdaptiveScheme(system, policy, extractor),
            ):
                batch_sizes = []
                run_batch = type(scheme).run_batch

                def spy(self, w, l=None, _sizes=batch_sizes, _run=run_batch):
                    _sizes.append(w.shape[0])
                    return _run(self, w, l)

                monkeypatch.setattr(type(scheme), "run_batch", spy)
                system.reset()
                outcomes = scheme.run_batch(windows[:3], labels[:3])
                assert batch_sizes == [3, 1, 1, 1]
                assert [outcome.window_index for outcome in outcomes] == [0, 1, 2]
                monkeypatch.undo()
        finally:
            link.jitter_ms = original_jitter

    def test_empty_batches(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        system.reset()
        assert AdaptiveScheme(system, policy, extractor).run_batch(windows[:0]) == []
        assert SuccessiveScheme(system).run_batch(windows[:0]) == []
