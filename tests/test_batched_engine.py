"""Batch-size equivalence tests for the vectorised execution engine.

Every batched path must agree with the same path stepped one sample at a time
(the Keras wrapper/recurrent test idiom): one ``HECSystem.detect_batch``
call reproduces repeated single-window calls including all bookkeeping, the
scheme ``run_batch`` drivers reproduce themselves stepped one window at a
time, and the vectorised LSTM backward matches the seed
(per-timestep) implementation's gradients to tight tolerance.  What the deleted
sequential implementations (``detect_at``, ``SelectionScheme.run``) produced is
pinned by the recorded goldens in ``tests/test_schemes_goldens.py``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from repro.bandit.context import UnivariateContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.exceptions import ShapeError
from repro.nn.layers.lstm import LSTM
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.base import SchemeRun
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
# HECSystem.detect_batch vs repeated single-window calls
# ---------------------------------------------------------------------------

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
        system, _deployments, _detectors, windows, _labels = univariate_hec
        batch = windows[:10]

        system.reset()
        stepped = [
            system.detect_batch(layer, batch[i : i + 1], with_confidence=True)
            for i in range(batch.shape[0])
        ]
        stepped_state = _system_state(system, layer)

        system.reset()
        batched = system.detect_batch(layer, batch, with_confidence=True)
        batched_state = _system_state(system, layer)

        assert [r.layer for r in stepped] == [batched.layer] * 10
        for name in ("predictions", "confidents"):
            assert np.array_equal(
                getattr(batched, name), np.concatenate([getattr(r, name) for r in stepped])
            ), name
        for name in ("anomaly_scores", "delays_ms"):
            assert_allclose(
                getattr(batched, name), np.concatenate([getattr(r, name) for r in stepped])
            )
        assert stepped_state[0] == pytest.approx(batched_state[0])
        assert stepped_state[1] == batched_state[1]
        assert stepped_state[2] == pytest.approx(batched_state[2])

    def test_empty_batch(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        assert system.detect_batch(0, windows[:0]).n == 0

    def test_shape_validation(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        with pytest.raises(ShapeError):
            system.detect_batch(0, windows[0])  # single window, not a batch
        with pytest.raises(ShapeError):
            system.detect_batch(0, windows[:3], escalated_ms=np.zeros(1))

    def test_escalation_merges_per_window(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        system.reset()
        system.topology.warm_links()
        previous = system.detect_batch(0, windows[:2])
        plain = system.detect_batch(1, windows[:2])
        escalated = system.detect_batch(1, windows[:2], escalated_ms=previous.delays_ms)
        assert_allclose(escalated.delays_ms, plain.delays_ms + previous.delays_ms)


# ---------------------------------------------------------------------------
# Scheme run_batch vs itself stepped one window at a time
# ---------------------------------------------------------------------------

def _assert_same_run(run_a, run_b):
    for name in ("predictions", "layers", "attempts", "attempt_layers", "attempt_confident"):
        assert np.array_equal(getattr(run_a, name), getattr(run_b, name)), name
    assert_allclose(run_a.delays_ms, run_b.delays_ms)


def _stepped(scheme, windows):
    return SchemeRun.concatenate(
        [scheme.run_batch(windows[index : index + 1]) for index in range(windows.shape[0])]
    )


def _untrained_policy(windows):
    extractor = UnivariateContextExtractor(segments=7)
    extractor.fit(windows)
    policy = PolicyNetwork(context_dim=extractor.context_dim, n_actions=3,
                           hidden_units=8, seed=0)
    return policy, extractor


class TestSchemeRunBatchEquivalence:
    """One driver at two batch sizes: all windows at once vs one at a time."""

    def test_fixed_scheme(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        for layer in range(system.n_layers):
            system.reset()
            stepped = _stepped(FixedLayerScheme(system, layer), windows)
            system.reset()
            batched = FixedLayerScheme(system, layer).run_batch(windows)
            _assert_same_run(batched, stepped)

    def test_successive_scheme(self, univariate_hec):
        """Same verdicts and the same escalation chains, layer by layer."""
        system, _deployments, _detectors, windows, _labels = univariate_hec
        system.reset()
        stepped = _stepped(SuccessiveScheme(system), windows)
        system.reset()
        batched = SuccessiveScheme(system).run_batch(windows)
        _assert_same_run(batched, stepped)
        assert batched.attempts.max() > 1  # something actually escalated

    def test_adaptive_scheme_greedy(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        system.reset()
        stepped = _stepped(AdaptiveScheme(system, policy, extractor), windows)
        system.reset()
        batched = AdaptiveScheme(system, policy, extractor).run_batch(windows)
        _assert_same_run(batched, stepped)

    def test_first_window_to_cross_a_link_pays_its_setup(self, univariate_hec):
        """Grouping by layer must not move connection setup off the window
        that, in arrival order, opens the connection."""
        system, _deployments, _detectors, windows, _labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        policy.select_actions = lambda contexts: np.array([2, 1, 1, 0])[
            : len(contexts)
        ]
        system.reset()
        batched = AdaptiveScheme(system, policy, extractor).run_batch(windows[:4])
        setup = sum(link.connection_setup_ms for link in system.topology.links)
        assert setup > 0
        shape = windows.shape[1:]
        assert batched.layers.tolist() == [2, 1, 1, 0]
        assert batched.delays_ms.tolist() == pytest.approx(
            [
                system.expected_delay_ms(2, shape) + setup,  # opens both links
                system.expected_delay_ms(1, shape),
                system.expected_delay_ms(1, shape),
                system.expected_delay_ms(0, shape),
            ]
        )

    def test_adaptive_scheme_policy_overhead(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        system.reset()
        plain = AdaptiveScheme(system, policy, extractor).run_batch(windows[:4])
        system.reset()
        overhead = AdaptiveScheme(
            system, policy, extractor, policy_overhead_ms=5.0
        ).run_batch(windows[:4])
        assert np.array_equal(overhead.delays_ms, plain.delays_ms + 5.0)

    def test_jittery_links_step_window_by_window(self, univariate_hec, monkeypatch):
        """Grouped batching would reorder jitter draws, so on jittery links
        run_batch feeds itself one window at a time, in arrival order."""
        system, _deployments, _detectors, windows, _labels = univariate_hec
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

                def spy(self, w, _sizes=batch_sizes, _run=run_batch):
                    _sizes.append(w.shape[0])
                    return _run(self, w)

                monkeypatch.setattr(type(scheme), "run_batch", spy)
                system.reset()
                run = scheme.run_batch(windows[:3])
                assert batch_sizes == [3, 1, 1, 1]
                assert run.n == 3
                monkeypatch.undo()
        finally:
            link.jitter_ms = original_jitter

    def test_empty_batches(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        policy, extractor = _untrained_policy(windows)
        system.reset()
        for scheme in (
            FixedLayerScheme(system, 1),
            AdaptiveScheme(system, policy, extractor),
            SuccessiveScheme(system),
        ):
            run = scheme.run_batch(windows[:0])
            assert run.n == 0 and run.attempt_layers.shape == (0,), scheme.name
        assert [c.requests for c in system.layer_counters.values()] == [0, 0, 0]
