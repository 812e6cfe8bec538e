"""Tests for Dense, Dropout, TimeDistributed, LSTM and Bidirectional layers."""

import json

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ShapeError
from repro.nn.layers import LSTM, Bidirectional, Dense, Dropout, TimeDistributed
from repro.nn.losses import MeanSquaredError

from gradient_check import check_gradients

MSE = MeanSquaredError()


def _grad_check_layer(layer, inputs, target, tolerance=1e-4, grad_state=None):
    """Forward/backward once, then finite-difference check every parameter."""
    layer.forward(inputs, training=True)  # build
    output = layer.forward(inputs, training=True)
    grad = MSE.gradient(output, target)
    if isinstance(layer, (LSTM, Bidirectional)) and grad_state is not None:
        layer.backward(grad, grad_state=grad_state)
    else:
        layer.backward(grad)
    result = check_gradients(
        lambda: MSE.value(layer.forward(inputs, training=True), target),
        layer.parameters_and_gradients(),
    )
    assert result.passed(tolerance), f"max relative error {result.max_relative_error}"


class TestDense:
    def test_output_shape(self):
        layer = Dense(7)
        layer.set_rng(0)
        out = layer.forward(np.zeros((4, 3)))
        assert out.shape == (4, 7)

    def test_parameter_count(self):
        layer = Dense(5)
        layer.set_rng(0)
        layer.forward(np.zeros((1, 3)))
        assert layer.parameter_count() == 3 * 5 + 5

    def test_no_bias_option(self):
        layer = Dense(5, use_bias=False)
        layer.set_rng(0)
        layer.forward(np.zeros((1, 3)))
        assert layer.parameter_count() == 15

    def test_rejects_3d_input(self):
        with pytest.raises(ShapeError):
            Dense(4).forward(np.zeros((2, 3, 4)))

    def test_rejects_changed_input_dim(self):
        layer = Dense(4)
        layer.set_rng(0)
        layer.forward(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 5)))

    def test_backward_before_forward_raises(self):
        layer = Dense(4)
        layer.set_rng(0)
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((2, 4)))

    def test_backward_after_inference_forward_raises(self):
        """Only a training pass keeps the input and output ``backward`` needs."""
        layer = Dense(4, activation="tanh")
        layer.set_rng(0)
        x = np.random.default_rng(0).normal(size=(2, 3))
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        layer.forward(x)
        assert layer._cache_input is None and layer._cache_output is None
        with pytest.raises(ShapeError):
            layer.backward(np.ones_like(out))

    def test_gradient_check_linear(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, activation="linear")
        layer.set_rng(0)
        _grad_check_layer(layer, rng.normal(size=(5, 3)), rng.normal(size=(5, 4)))

    def test_gradient_check_tanh_with_regularizer(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, activation="tanh", kernel_regularizer=1e-2)
        layer.set_rng(0)
        inputs = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 4))
        layer.forward(inputs, training=True)
        output = layer.forward(inputs, training=True)
        layer.backward(MSE.gradient(output, target))

        def loss():
            return (
                MSE.value(layer.forward(inputs, training=True), target)
                + layer.regularization_penalty()
            )

        result = check_gradients(loss, layer.parameters_and_gradients())
        assert result.passed(1e-4)

    def test_gradient_check_softmax(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, activation="softmax")
        layer.set_rng(0)
        _grad_check_layer(layer, rng.normal(size=(4, 5)), rng.normal(size=(4, 3)))

    def test_set_weights_round_trip(self):
        layer = Dense(4)
        layer.set_rng(0)
        layer.forward(np.zeros((1, 3)))
        weights = layer.get_weights()
        weights["kernel"] = weights["kernel"] + 1.0
        layer.set_weights(weights)
        np.testing.assert_allclose(layer.params["kernel"], weights["kernel"])

    def test_set_weights_bad_shape(self):
        layer = Dense(4)
        layer.set_rng(0)
        layer.forward(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            layer.set_weights({"kernel": np.zeros((2, 2))})

    def test_set_weights_unknown_key(self):
        layer = Dense(4)
        layer.set_rng(0)
        layer.forward(np.zeros((1, 3)))
        with pytest.raises(KeyError):
            layer.set_weights({"mystery": np.zeros((2, 2))})

    def test_parameters_before_build_raises(self):
        with pytest.raises(NotFittedError):
            Dense(4).parameters_and_gradients()

    def test_config_describes_layer(self):
        config = Dense(4, activation="relu", kernel_regularizer=1e-4).get_config()
        assert config["units"] == 4
        assert config["activation"] == "relu"
        assert config["kernel_regularizer"]["type"] == "l2"


# The model registry content-addresses a model by the hash of its config, so a
# config must be JSON and must tell apart layers that compute differently.
_CONFIG_PAIRS = {
    "dense-units": lambda u: Dense(4 + u, name="d"),
    "dense-activation": lambda u: Dense(4, activation=("relu", "tanh")[u], name="d"),
    "dense-regularizer": lambda u: Dense(4, kernel_regularizer=(None, 1e-4)[u], name="d"),
    "dropout-rate": lambda u: Dropout((0.2, 0.3)[u], name="p"),
    "time-distributed-inner": lambda u: TimeDistributed(Dense(4 + u, name="d"), name="t"),
    "lstm-return-sequences": lambda u: LSTM(4, return_sequences=bool(u), name="l"),
    "bidirectional-units": lambda u: Bidirectional(LSTM(4 + u, name="l"), name="b"),
    "bidirectional-backward": lambda u: Bidirectional(
        LSTM(4, name="l"), LSTM(4, double_bias=bool(u), name="l_backward"), name="b"),
}


class TestLayerConfig:
    @pytest.mark.parametrize("make", _CONFIG_PAIRS.values(), ids=_CONFIG_PAIRS.keys())
    def test_config_is_json_and_tells_the_layers_apart(self, make):
        first, second = make(0).get_config(), make(1).get_config()
        assert json.loads(json.dumps(first)) == first
        assert first["type"] == second["type"]
        assert first != second


class TestDropout:
    def test_identity_at_inference(self):
        layer = Dropout(0.5)
        layer.set_rng(0)
        x = np.random.default_rng(0).normal(size=(10, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_zero_rate_is_identity_in_training(self):
        layer = Dropout(0.0)
        layer.set_rng(0)
        x = np.ones((5, 5))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_training_zeroes_roughly_rate_fraction(self):
        layer = Dropout(0.3)
        layer.set_rng(0)
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        dropped_fraction = float(np.mean(out == 0.0))
        assert abs(dropped_fraction - 0.3) < 0.05

    def test_inverted_scaling_preserves_mean(self):
        layer = Dropout(0.4)
        layer.set_rng(0)
        x = np.ones((300, 300))
        out = layer.forward(x, training=True)
        assert abs(out.mean() - 1.0) < 0.05

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5)
        layer.set_rng(0)
        x = np.ones((20, 20))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_backward_identity_when_not_training(self):
        layer = Dropout(0.5)
        layer.set_rng(0)
        layer.forward(np.ones((3, 3)), training=False)
        grad = layer.backward(np.full((3, 3), 2.0))
        np.testing.assert_array_equal(grad, np.full((3, 3), 2.0))

    def test_invalid_rate(self):
        with pytest.raises(Exception):
            Dropout(1.5)

    def test_works_on_3d_tensors(self):
        layer = Dropout(0.2)
        layer.set_rng(0)
        out = layer.forward(np.ones((4, 5, 6)), training=True)
        assert out.shape == (4, 5, 6)


class TestTimeDistributed:
    def test_output_shape(self):
        layer = TimeDistributed(Dense(4))
        layer.set_rng(0)
        out = layer.forward(np.zeros((2, 5, 3)))
        assert out.shape == (2, 5, 4)

    def test_shares_weights_across_time(self):
        layer = TimeDistributed(Dense(2, use_bias=False))
        layer.set_rng(0)
        x = np.ones((1, 4, 3))
        out = layer.forward(x)
        # Every timestep must produce the same output since inputs are identical.
        for t in range(1, 4):
            np.testing.assert_allclose(out[0, t], out[0, 0])

    def test_rejects_2d_input(self):
        with pytest.raises(ShapeError):
            TimeDistributed(Dense(2)).forward(np.zeros((2, 3)))

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        layer = TimeDistributed(Dense(3, activation="tanh"))
        layer.set_rng(0)
        _grad_check_layer(layer, rng.normal(size=(2, 4, 5)), rng.normal(size=(2, 4, 3)))

    def test_parameter_count_matches_inner(self):
        layer = TimeDistributed(Dense(4))
        layer.set_rng(0)
        layer.forward(np.zeros((1, 2, 3)))
        assert layer.parameter_count() == 3 * 4 + 4

    def test_backward_before_forward_raises(self):
        with pytest.raises(ShapeError):
            TimeDistributed(Dense(2)).backward(np.zeros((1, 2, 2)))


class TestLSTM:
    def test_output_shapes(self):
        lstm_seq = LSTM(6, return_sequences=True)
        lstm_seq.set_rng(0)
        lstm_last = LSTM(6, return_sequences=False)
        lstm_last.set_rng(0)
        x = np.zeros((3, 5, 2))
        assert lstm_seq.forward(x).shape == (3, 5, 6)
        assert lstm_last.forward(x).shape == (3, 6)

    def test_last_state_exposed(self):
        lstm = LSTM(4, return_sequences=True)
        lstm.set_rng(0)
        out = lstm.forward(np.random.default_rng(0).normal(size=(2, 6, 3)))
        h, c = lstm.last_state
        assert h.shape == (2, 4) and c.shape == (2, 4)
        np.testing.assert_allclose(out[:, -1, :], h)

    def test_parameter_count_single_bias(self):
        lstm = LSTM(50)
        lstm.set_rng(0)
        lstm.forward(np.zeros((1, 2, 18)))
        assert lstm.parameter_count() == 4 * (18 * 50 + 50 * 50 + 50)

    def test_parameter_count_double_bias(self):
        lstm = LSTM(100, double_bias=True)
        lstm.set_rng(0)
        lstm.forward(np.zeros((1, 2, 18)))
        assert lstm.parameter_count() == 4 * (18 * 100 + 100 * 100 + 2 * 100)

    def test_unit_forget_bias_applied(self):
        lstm = LSTM(3, unit_forget_bias=True)
        lstm.set_rng(0)
        lstm.forward(np.zeros((1, 1, 2)))
        np.testing.assert_array_equal(lstm.params["bias"][3:6], np.ones(3))

    def test_rejects_2d_input(self):
        with pytest.raises(ShapeError):
            LSTM(3).forward(np.zeros((4, 5)))

    def test_rejects_zero_timesteps(self):
        with pytest.raises(ShapeError):
            LSTM(3).forward(np.zeros((4, 0, 5)))

    def test_initial_state_changes_output(self):
        lstm = LSTM(4)
        lstm.set_rng(0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 2))
        baseline = lstm.forward(x)
        shifted = lstm.forward(
            x, initial_state=(np.ones((2, 4)), np.ones((2, 4)))
        )
        assert not np.allclose(baseline, shifted)

    def test_initial_state_shape_validated(self):
        lstm = LSTM(4)
        lstm.set_rng(0)
        with pytest.raises(ShapeError):
            lstm.forward(np.zeros((2, 3, 2)), initial_state=(np.zeros((2, 3)), np.zeros((2, 4))))

    def test_gradient_check_return_sequences(self):
        rng = np.random.default_rng(4)
        lstm = LSTM(4, return_sequences=True)
        lstm.set_rng(0)
        _grad_check_layer(lstm, rng.normal(size=(3, 5, 2)), rng.normal(size=(3, 5, 4)))

    def test_gradient_check_last_output_double_bias(self):
        rng = np.random.default_rng(5)
        lstm = LSTM(3, return_sequences=False, double_bias=True)
        lstm.set_rng(1)
        _grad_check_layer(lstm, rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 3)))

    def test_input_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        lstm = LSTM(3, return_sequences=True)
        lstm.set_rng(0)
        x = rng.normal(size=(2, 4, 2))
        target = rng.normal(size=(2, 4, 3))
        lstm.forward(x, training=True)
        out = lstm.forward(x, training=True)
        grad_inputs = lstm.backward(MSE.gradient(out, target))
        eps = 1e-6
        numeric = np.zeros_like(x)
        for index in np.ndindex(x.shape):
            perturbed = x.copy()
            perturbed[index] += eps
            plus = MSE.value(lstm.forward(perturbed, training=True), target)
            perturbed[index] -= 2 * eps
            minus = MSE.value(lstm.forward(perturbed, training=True), target)
            numeric[index] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad_inputs, numeric, rtol=1e-3, atol=1e-7)

    def test_grad_initial_state_populated(self):
        lstm = LSTM(3)
        lstm.set_rng(0)
        x = np.random.default_rng(0).normal(size=(2, 4, 2))
        out = lstm.forward(x, training=True)
        out = lstm.forward(x, training=True)
        lstm.backward(np.ones_like(out))
        dh0, dc0 = lstm.grad_initial_state
        assert dh0.shape == (2, 3) and dc0.shape == (2, 3)

    def test_backward_shape_mismatch_raises(self):
        lstm = LSTM(3, return_sequences=True)
        lstm.set_rng(0)
        lstm.forward(np.zeros((2, 4, 2)), training=True)
        with pytest.raises(ShapeError):
            lstm.backward(np.zeros((2, 3)))


class TestLSTMCellKernel:
    """One cell kernel behind every path, pinned by construction: ``assert_array_equal``."""

    @staticmethod
    def _layer(cls=LSTM, **kwargs):
        layer = LSTM(5, **kwargs)
        if cls is Bidirectional:
            layer = Bidirectional(layer)
        layer.set_rng(0)
        return layer

    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("double_bias", [False, True])
    def test_timestep_by_timestep_equals_full_sequence(self, return_sequences, double_bias):
        """One timepoint at a time with the state carried over is the full-sequence layer."""
        layer = self._layer(return_sequences=return_sequences, double_bias=double_bias)
        x = np.random.default_rng(1).normal(size=(4, 9, 3))
        full = layer.forward(x)
        full_h, full_c = layer.last_state
        state, steps = None, []
        for t in range(x.shape[1]):
            steps.append(layer.forward(x[:, t: t + 1, :], initial_state=state))
            state = layer.last_state
        stepped = np.concatenate(steps, axis=1) if return_sequences else steps[-1]
        np.testing.assert_array_equal(stepped, full)
        np.testing.assert_array_equal(state[0], full_h)
        np.testing.assert_array_equal(state[1], full_c)

    @pytest.mark.parametrize("return_sequences", [False, True])
    @pytest.mark.parametrize("cls", [LSTM, Bidirectional])
    def test_inference_forward_equals_training_forward(self, cls, return_sequences):
        layer = self._layer(cls, return_sequences=return_sequences, double_bias=True)
        x = np.random.default_rng(2).normal(size=(3, 7, 4))
        trained = np.array(layer.forward(x, training=True))
        trained_state = [np.array(state) for state in layer.last_state]
        np.testing.assert_array_equal(layer.forward(x, training=False), trained)
        np.testing.assert_array_equal(layer.last_state[0], trained_state[0])
        np.testing.assert_array_equal(layer.last_state[1], trained_state[1])

    def test_inference_forward_does_not_touch_the_initial_state(self):
        layer = self._layer(return_sequences=True)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 3))
        h0, c0 = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
        kept = (h0.copy(), c0.copy())
        layer.forward(x, initial_state=(h0, c0))
        np.testing.assert_array_equal(h0, kept[0])
        np.testing.assert_array_equal(c0, kept[1])

    @pytest.mark.parametrize("cls", [LSTM, Bidirectional])
    def test_backward_after_inference_forward_raises(self, cls):
        """An inference pass drops the BPTT tensors; backward never reads stale ones."""
        layer = self._layer(cls)
        x = np.random.default_rng(4).normal(size=(2, 4, 3))
        out = layer.forward(x, training=True)
        layer.backward(np.ones_like(out))
        layer.forward(x, training=False)
        with pytest.raises(ShapeError, match=cls.__name__):
            layer.backward(np.ones_like(out))

    def test_inference_forward_keeps_no_sequence_tensors(self):
        layer = self._layer()
        x = np.random.default_rng(5).normal(size=(2, 6, 3))
        layer.forward(x, training=True)
        assert layer._cache is not None
        layer.forward(x)
        assert layer._cache is None
        assert all(state.shape == (2, 5) for state in layer.last_state)


class TestBidirectional:
    def test_output_shapes(self):
        bi_seq = Bidirectional(LSTM(3, return_sequences=True))
        bi_seq.set_rng(0)
        bi_last = Bidirectional(LSTM(3, return_sequences=False))
        bi_last.set_rng(0)
        x = np.zeros((2, 5, 4))
        assert bi_seq.forward(x).shape == (2, 5, 6)
        assert bi_last.forward(x).shape == (2, 6)

    def test_units_doubled(self):
        assert Bidirectional(LSTM(7)).units == 14

    def test_last_state_concatenated(self):
        bi = Bidirectional(LSTM(3))
        bi.set_rng(0)
        bi.forward(np.random.default_rng(0).normal(size=(2, 4, 2)))
        h, c = bi.last_state
        assert h.shape == (2, 6) and c.shape == (2, 6)

    def test_parameter_count_is_twice_single(self):
        single = LSTM(4)
        single.set_rng(0)
        single.forward(np.zeros((1, 2, 3)))
        bi = Bidirectional(LSTM(4))
        bi.set_rng(0)
        bi.forward(np.zeros((1, 2, 3)))
        assert bi.parameter_count() == 2 * single.parameter_count()

    def test_sequence_alignment(self):
        """The backward-direction output at time t must depend on the future only."""
        bi = Bidirectional(LSTM(2, return_sequences=True))
        bi.set_rng(0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 6, 3))
        baseline = bi.forward(x)
        modified = x.copy()
        modified[0, 0, :] += 10.0  # perturb the first timestep only
        perturbed = bi.forward(modified)
        units = 2
        # Forward half at the last step must change (it saw the perturbation)...
        assert not np.allclose(baseline[0, -1, :units], perturbed[0, -1, :units])
        # ...while the backward half at the last step only sees the last input.
        np.testing.assert_allclose(baseline[0, -1, units:], perturbed[0, -1, units:])

    def test_gradient_check_sequences(self):
        rng = np.random.default_rng(7)
        bi = Bidirectional(LSTM(2, return_sequences=True))
        bi.set_rng(0)
        _grad_check_layer(bi, rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4, 4)))

    def test_gradient_check_final_state(self):
        rng = np.random.default_rng(8)
        bi = Bidirectional(LSTM(2, return_sequences=False))
        bi.set_rng(0)
        _grad_check_layer(bi, rng.normal(size=(2, 4, 3)), rng.normal(size=(2, 4)))

    def test_mismatched_directions_rejected(self):
        with pytest.raises(ShapeError):
            Bidirectional(LSTM(3), LSTM(4))
        with pytest.raises(ShapeError):
            Bidirectional(LSTM(3, return_sequences=True), LSTM(3, return_sequences=False))

    def test_external_initial_state_rejected(self):
        bi = Bidirectional(LSTM(2))
        bi.set_rng(0)
        with pytest.raises(ShapeError):
            bi.forward(np.zeros((1, 3, 2)), initial_state=(np.zeros((1, 2)), np.zeros((1, 2))))

    def test_weights_round_trip(self):
        bi = Bidirectional(LSTM(2))
        bi.set_rng(0)
        bi.forward(np.zeros((1, 3, 2)))
        weights = bi.get_weights()
        bi.set_weights(weights)
        np.testing.assert_allclose(
            bi.forward(np.ones((1, 3, 2))), bi.forward(np.ones((1, 3, 2)))
        )


class _TwoLSTMBidirectional:
    """The reference: each direction a separate ``LSTM`` run one after the other."""

    def __init__(self, forward_layer, backward_layer):
        self.forward_layer, self.backward_layer = forward_layer, backward_layer
        self.units = forward_layer.units

    def forward(self, inputs):
        forward_out = self.forward_layer.forward(inputs, training=True)
        backward_out = self.backward_layer.forward(inputs[:, ::-1, :], training=True)
        (fh, fc), (bh, bc) = self.forward_layer.last_state, self.backward_layer.last_state
        self.last_state = (np.concatenate([fh, bh], axis=1), np.concatenate([fc, bc], axis=1))
        if self.forward_layer.return_sequences:
            return np.concatenate([forward_out, backward_out[:, ::-1, :]], axis=2)
        return np.concatenate([forward_out, backward_out], axis=1)

    def backward(self, grad_output, grad_state=None):
        units = self.units
        forward_state = backward_state = None
        if grad_state is not None:
            dh, dc = grad_state
            forward_state = (dh[:, :units], dc[:, :units])
            backward_state = (dh[:, units:], dc[:, units:])
        if self.forward_layer.return_sequences:
            grad_forward, grad_backward = grad_output[:, :, :units], grad_output[:, ::-1, units:]
        else:
            grad_forward, grad_backward = grad_output[:, :units], grad_output[:, units:]
        grad_f = self.forward_layer.backward(grad_forward, grad_state=forward_state)
        grad_b = self.backward_layer.backward(grad_backward, grad_state=backward_state)
        return grad_f + grad_b[:, ::-1, :]

    def parameters_and_gradients(self):
        return (
            self.forward_layer.parameters_and_gradients()
            + self.backward_layer.parameters_and_gradients()
        )


class TestStackedBidirectional:
    """Both directions in one block equal the two-LSTM wrapper bit for bit (SNIPPETS.md's
    reference-vs-subject check, with ``assert_array_equal`` for its tolerance)."""

    @staticmethod
    def _pair(units, seed, **kwargs):
        layers = [LSTM(units, **kwargs) for _ in range(2)]
        for offset, layer in enumerate(layers):
            layer.set_rng(seed + offset)
        return layers

    @staticmethod
    def _compare(units, batch, return_sequences, double_bias, with_grad_state,
                 kernel_regularizer=None):
        kwargs = dict(return_sequences=return_sequences, double_bias=double_bias,
                      kernel_regularizer=kernel_regularizer)
        rng = np.random.default_rng(units + batch)
        x = rng.normal(size=(batch, 7, 5))
        reference = _TwoLSTMBidirectional(*TestStackedBidirectional._pair(units, 1, **kwargs))
        want = reference.forward(x)
        subject = Bidirectional(*TestStackedBidirectional._pair(units, 50, **kwargs))
        subject.set_rng(50)
        subject.forward(x)  # build
        subject.set_weights({
            "forward": reference.forward_layer.get_weights(),
            "backward": reference.backward_layer.get_weights(),
        })
        got = subject.forward(x, training=True)
        np.testing.assert_array_equal(got, want)
        for got_state, want_state in zip(subject.last_state, reference.last_state):
            np.testing.assert_array_equal(got_state, want_state)

        grad_output = rng.normal(size=want.shape)
        grad_state = (
            tuple(rng.normal(size=(batch, 2 * units)) for _ in range(2))
            if with_grad_state else None
        )
        np.testing.assert_array_equal(
            subject.backward(grad_output, grad_state=grad_state),
            reference.backward(grad_output, grad_state=grad_state),
        )
        got_pairs, want_pairs = subject.parameters_and_gradients(), reference.parameters_and_gradients()
        assert len(got_pairs) == len(want_pairs)
        for (_p, got_grad), (_q, want_grad) in zip(got_pairs, want_pairs):
            np.testing.assert_array_equal(got_grad, want_grad)

    @pytest.mark.parametrize("units", [8, 48, 200])
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("with_grad_state", [False, True])
    @pytest.mark.parametrize("double_bias", [False, True])
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_equals_two_lstm_wrapper(self, units, batch, return_sequences, double_bias,
                                     with_grad_state):
        self._compare(units, batch, return_sequences, double_bias, with_grad_state)

    def test_equals_two_lstm_wrapper_with_kernel_regularizer(self):
        self._compare(48, 16, True, True, True, kernel_regularizer=1e-2)

    def test_rejects_zero_timesteps(self):
        with pytest.raises(ShapeError, match="zero timesteps"):
            Bidirectional(LSTM(3)).forward(np.zeros((2, 0, 4)))

    def test_rejects_changed_feature_count(self):
        bi = Bidirectional(LSTM(3))
        bi.forward(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeError, match="input_dim=4"):
            bi.forward(np.zeros((2, 4, 5)))

    def test_backward_before_training_forward_names_the_layer(self):
        """After an inference forward too: ``TestLSTMCellKernel`` checks that case."""
        bi = Bidirectional(LSTM(3))
        with pytest.raises(ShapeError, match="Bidirectional"):
            bi.backward(np.zeros((2, 6)))


class TestGradientBuffers:
    """``backward`` writes this pass's gradients; nothing accumulates, nothing is zeroed."""

    @staticmethod
    def _layers():
        return [
            Dense(4, activation="tanh", kernel_regularizer=1e-2),
            LSTM(3, return_sequences=True, double_bias=True, kernel_regularizer=1e-2),
            Bidirectional(LSTM(3)),
            TimeDistributed(Dense(2)),
        ]

    @staticmethod
    def _backward(layer, x, seed):
        out = layer.forward(x, training=True)
        layer.backward(np.random.default_rng(seed).normal(size=out.shape))
        return [grad.copy() for _param, grad in layer.parameters_and_gradients()]

    @pytest.mark.parametrize("index", range(4))
    def test_two_backward_passes_leave_the_second_alone(self, index):
        rng = np.random.default_rng(7)
        shape = (5, 3) if index == 0 else (2, 4, 3)
        first, second = rng.normal(size=shape), rng.normal(size=shape)

        layer = self._layers()[index]
        layer.set_rng(0)
        self._backward(layer, first, seed=1)
        pairs = layer.parameters_and_gradients()
        both = self._backward(layer, second, seed=2)

        fresh = self._layers()[index]
        fresh.set_rng(0)
        only_second = self._backward(fresh, second, seed=2)

        assert both and len(both) == len(only_second)
        for got, want in zip(both, only_second):
            np.testing.assert_array_equal(got, want)
        # The pairs are resolved once: the same arrays on every call.
        again = layer.parameters_and_gradients()
        assert all(p is q and g is h for (p, g), (q, h) in zip(pairs, again))

    @pytest.mark.parametrize("index", range(4))
    def test_released_buffers_come_back_on_the_next_backward(self, index):
        x = np.random.default_rng(8).normal(size=(5, 3) if index == 0 else (2, 4, 3))
        layer = self._layers()[index]
        layer.set_rng(0)
        before = self._backward(layer, x, seed=3)
        params = [param for param, _grad in layer.parameters_and_gradients()]
        layer.release_training_buffers()
        inner = [layer.forward_layer, layer.backward_layer] if index == 2 else [layer]
        assert all(not part.grads for part in inner)
        if index == 2:
            assert layer._cache is None  # the stacked BPTT tensors go with the buffers
        after = self._backward(layer, x, seed=3)
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)
        assert all(p is q for p, (q, _grad) in zip(params, layer.parameters_and_gradients()))
