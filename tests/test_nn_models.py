"""Tests for the Sequential and Seq2SeqAutoencoder model containers."""

import copy
import pickle

import numpy as np
import pytest

from repro.detectors.lstm_seq2seq import build_seq2seq_detector
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.nn.activations import sigmoid
from repro.nn.layers import LSTM, Bidirectional, Dense, Dropout, TimeDistributed
from repro.nn.models.seq2seq import Seq2SeqAutoencoder
from repro.nn.models.sequential import Sequential

from gradient_check import check_gradients


class TestSequential:
    def _autoencoder(self, input_dim=6, hidden=3, seed=0):
        model = Sequential(
            [Dense(hidden, activation="tanh"), Dense(input_dim, activation="linear")],
            seed=seed,
        )
        model.compile("adam", "mse", learning_rate=0.01)
        return model

    def test_forward_shape(self):
        model = self._autoencoder()
        out = model.forward(np.zeros((4, 6)))
        assert out.shape == (4, 6)

    def test_call_is_predict(self):
        model = self._autoencoder()
        x = np.random.default_rng(2).normal(size=(7, 6))
        np.testing.assert_array_equal(model(x), model.predict(x))

    def test_predict_batched_matches_full(self):
        model = self._autoencoder()
        x = np.random.default_rng(0).normal(size=(10, 6))
        chunks = [model.predict(x[start:start + 3]) for start in range(0, 10, 3)]
        np.testing.assert_array_equal(model.predict(x), np.concatenate(chunks))

    def test_fit_reduces_loss(self):
        model = self._autoencoder()
        rng = np.random.default_rng(0)
        # Data living on a 2-D linear manifold is learnable by a small AE.
        basis = rng.normal(size=(2, 6))
        x = rng.normal(size=(64, 2)) @ basis
        history = model.fit(x, epochs=30, batch_size=8)
        assert history.losses[-1] < history.losses[0]

    def test_patience_stops_at_the_first_epoch_without_a_new_best(self):
        model = self._autoencoder()
        x = np.random.default_rng(0).normal(size=(20, 6))
        losses = model.fit(x, epochs=50, batch_size=8, patience=1).losses
        assert len(losses) < 50
        assert all(later < earlier for earlier, later in zip(losses[:-2], losses[1:-1]))
        assert losses[-1] >= losses[-2]

    def test_fit_requires_compile(self):
        model = Sequential([Dense(3)], seed=0)
        with pytest.raises(NotFittedError):
            model.fit(np.zeros((4, 3)), epochs=1)

    def test_forward_without_layers_raises(self):
        with pytest.raises(ConfigurationError):
            Sequential([]).forward(np.zeros((2, 2)))

    def test_add_rejects_non_layer(self):
        with pytest.raises(ConfigurationError):
            Sequential().add("not-a-layer")

    def test_invalid_epochs(self):
        model = self._autoencoder()
        with pytest.raises(ConfigurationError):
            model.fit(np.zeros((4, 6)), epochs=0)

    def test_1d_input_rejected(self):
        model = self._autoencoder()
        with pytest.raises(ShapeError):
            model.fit(np.zeros(6), epochs=1)

    def test_parameter_count(self):
        model = self._autoencoder(input_dim=6, hidden=3)
        model.build(6)
        assert model.parameter_count() == (6 * 3 + 3) + (3 * 6 + 6)

    def test_weights_round_trip_preserves_predictions(self):
        model = self._autoencoder()
        x = np.random.default_rng(0).normal(size=(5, 6))
        model.fit(x, epochs=2, batch_size=4)
        reference = model.predict(x)
        weights = model.get_weights()
        other = self._autoencoder(seed=99)
        other.build(6)
        other.set_weights(weights)
        np.testing.assert_allclose(other.predict(x), reference)

    def test_config(self):
        model = self._autoencoder()
        model.build(6)
        config = model.get_config()
        assert config["type"] == "Sequential"
        assert len(config["layers"]) == 2

    def test_gradient_check_full_model(self):
        rng = np.random.default_rng(2)
        model = Sequential(
            [Dense(5, activation="relu"), Dense(4, activation="tanh"), Dense(3)], seed=0
        )
        model.compile("adam", "mse", learning_rate=0.1)
        x = rng.normal(size=(6, 4)) + 0.5  # keep ReLU inputs away from the kink
        y = rng.normal(size=(6, 3))
        model.forward(x, training=True)
        pred = model.forward(x, training=True)
        model.backward(model.loss.gradient(pred, y))
        result = check_gradients(
            lambda: model.loss.value(model.forward(x, training=True), y),
            model.parameters_and_gradients(),
        )
        assert result.passed(1e-3)

    def test_trains_a_layer_that_keeps_its_parameters_in_sublayers(self):
        """``Bidirectional`` has no ``params`` of its own; its LSTMs' must still be stepped."""
        layers = [Bidirectional(LSTM(2, return_sequences=True)), Dropout(0.0)]
        model = Sequential(layers + [TimeDistributed(Dense(2))], seed=0)
        model.compile("adam", "mse", learning_rate=0.1)
        assert model.parameters_and_gradients() == []  # nothing built yet
        x = np.random.default_rng(0).normal(size=(3, 4, 2))
        model.forward(x)
        assert len(model.parameters_and_gradients()) == 3 + 3 + 2
        before = model.layers[0].forward_layer.get_weights()["kernel"]
        model.train_on_batch(x)
        assert not np.array_equal(model.layers[0].forward_layer.params["kernel"], before)


class TestSeq2SeqAutoencoder:
    def _model(self, bidirectional=False, units=5, channels=2, dropout=0.0, seed=0):
        if bidirectional:
            encoder = Bidirectional(LSTM(units))
            decoder = LSTM(2 * units, return_sequences=True)
        else:
            encoder = LSTM(units)
            decoder = LSTM(units, return_sequences=True)
        model = Seq2SeqAutoencoder(
            encoder, decoder, output_dim=channels, dropout_rate=dropout, seed=seed
        )
        model.compile("rmsprop", "mse", learning_rate=0.01)
        return model

    def test_forward_shape(self):
        model = self._model()
        windows = np.zeros((3, 7, 2))
        assert model.forward(windows).shape == (3, 7, 2)

    def test_decoder_units_must_match_encoder(self):
        with pytest.raises(ConfigurationError):
            Seq2SeqAutoencoder(LSTM(4), LSTM(5, return_sequences=True), output_dim=2)

    def test_decoder_must_return_sequences(self):
        with pytest.raises(ConfigurationError):
            Seq2SeqAutoencoder(LSTM(4), LSTM(4, return_sequences=False), output_dim=2)

    def test_encoder_must_not_return_sequences(self):
        with pytest.raises(ConfigurationError):
            Seq2SeqAutoencoder(
                LSTM(4, return_sequences=True), LSTM(4, return_sequences=True), output_dim=2
            )

    def test_fit_reduces_loss(self):
        model = self._model()
        rng = np.random.default_rng(0)
        t = np.linspace(0, 2 * np.pi, 9)
        windows = np.stack(
            [
                np.stack([np.sin(t + phase), np.cos(t + phase)], axis=1)
                for phase in rng.uniform(0, 2 * np.pi, size=24)
            ]
        )
        history = model.fit(windows, epochs=8, batch_size=8)
        assert history.losses[-1] < history.losses[0]

    def test_fit_requires_compile(self):
        model = Seq2SeqAutoencoder(LSTM(3), LSTM(3, return_sequences=True), output_dim=2)
        with pytest.raises(NotFittedError):
            model.fit(np.zeros((4, 5, 2)), epochs=1)

    def test_fit_rejects_2d(self):
        model = self._model()
        with pytest.raises(ShapeError):
            model.fit(np.zeros((4, 5)), epochs=1)

    def test_encode_shape(self):
        model = self._model(units=6)
        model.forward(np.zeros((2, 5, 2)))
        assert model.encode(np.zeros((3, 5, 2))).shape == (3, 6)

    def test_encode_shape_bidirectional(self):
        model = self._model(bidirectional=True, units=4)
        model.forward(np.zeros((2, 5, 2)))
        assert model.encode(np.zeros((3, 5, 2))).shape == (3, 8)

    def test_reconstruct_autoregressive_shape(self):
        model = self._model()
        windows = np.random.default_rng(0).normal(size=(3, 6, 2))
        recon = model.reconstruct(windows, teacher_forcing=False)
        assert recon.shape == windows.shape

    def test_reconstruct_teacher_forcing_shape(self):
        model = self._model()
        windows = np.random.default_rng(0).normal(size=(3, 6, 2))
        assert model.reconstruct(windows, teacher_forcing=True).shape == windows.shape

    def test_teacher_forcing_start_token_is_zero(self):
        targets = np.arange(12, dtype=float).reshape(1, 6, 2)
        decoder_inputs = Seq2SeqAutoencoder._decoder_inputs_from_targets(targets)
        np.testing.assert_array_equal(decoder_inputs[0, 0], np.zeros(2))
        np.testing.assert_array_equal(decoder_inputs[0, 1:], targets[0, :-1])

    def test_parameter_count_matches_components(self):
        model = self._model(units=5, channels=2)
        model.build(timesteps=4, features=2)
        expected = (
            4 * (2 * 5 + 5 * 5 + 5)  # encoder
            + 4 * (2 * 5 + 5 * 5 + 5)  # decoder
            + (5 * 2 + 2)  # projection
        )
        assert model.parameter_count() == expected

    def test_gradient_check_unidirectional(self):
        model = self._model(units=3, dropout=0.0)
        rng = np.random.default_rng(3)
        windows = rng.normal(size=(2, 4, 2))
        model.forward(windows, training=True)
        recon = model.forward(windows, training=True)
        model.backward(model.loss.gradient(recon, windows))
        result = check_gradients(
            lambda: model.loss.value(model.forward(windows, training=True), windows)
            + model.regularization_penalty(),
            model.parameters_and_gradients(),
            max_entries_per_param=10,
        )
        assert result.passed(1e-3)

    def test_gradient_check_bidirectional(self):
        model = self._model(bidirectional=True, units=2, dropout=0.0)
        rng = np.random.default_rng(4)
        windows = rng.normal(size=(2, 4, 2))
        model.forward(windows, training=True)
        recon = model.forward(windows, training=True)
        model.backward(model.loss.gradient(recon, windows))
        result = check_gradients(
            lambda: model.loss.value(model.forward(windows, training=True), windows)
            + model.regularization_penalty(),
            model.parameters_and_gradients(),
            max_entries_per_param=10,
        )
        assert result.passed(1e-3)

    def test_weights_round_trip_preserves_reconstruction(self):
        model = self._model(units=4)
        windows = np.random.default_rng(0).normal(size=(4, 5, 2))
        model.fit(windows, epochs=2, batch_size=4)
        reference = model.reconstruct(windows, teacher_forcing=True)
        clone = self._model(units=4, seed=11)
        clone.build(timesteps=5, features=2)
        clone.set_weights(model.get_weights())
        np.testing.assert_allclose(
            clone.reconstruct(windows, teacher_forcing=True), reference, atol=1e-10
        )

    def test_config(self):
        model = self._model()
        model.build(timesteps=4, features=2)
        config = model.get_config()
        assert config["type"] == "Seq2SeqAutoencoder"
        assert config["output_dim"] == 2


# ---------------------------------------------------------------------------
# The seq2seq inference paths against the training-mode pass and the old decoder
# ---------------------------------------------------------------------------


def _reference_autoregressive_decode(model, encoded_state, batch, timesteps, features):
    """The decoder loop as ``_reconstruct_autoregressive`` spelled it out before
    PR 16, with its own copy of the gate equations (the sigmoid itself is pinned
    to its old formulation in ``test_nn_initializers_activations.py``)."""
    h, c = (state.copy() for state in encoded_state)
    units = model.decoder.units
    kernel = model.decoder.params["kernel"]
    recurrent = model.decoder.params["recurrent_kernel"]
    bias = model.decoder.params["bias"]
    if model.decoder.double_bias:
        bias = bias + model.decoder.params["recurrent_bias"]
    dense = model.projection.inner
    previous_output = np.zeros((batch, features))
    reconstruction = np.zeros((batch, timesteps, features))
    for t in range(timesteps):
        z = previous_output @ kernel + h @ recurrent + bias
        i = sigmoid.forward(z[:, :units])
        f = sigmoid.forward(z[:, units: 2 * units])
        g = np.tanh(z[:, 2 * units: 3 * units])
        o = sigmoid.forward(z[:, 3 * units:])
        c = f * c + i * g
        h = o * np.tanh(c)
        previous_output = h @ dense.params["kernel"] + dense.params["bias"]
        reconstruction[:, t, :] = previous_output
    return reconstruction


def _arrays_reachable_from(obj, seen=None):
    """Every ndarray reachable from ``obj`` through attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (str, bytes, int, float, bool, type(None))):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays_reachable_from(value, seen)
    elif isinstance(obj, (list, tuple, set)):
        for value in obj:
            yield from _arrays_reachable_from(value, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays_reachable_from(vars(obj), seen)


class TestSeq2SeqInferencePaths:
    @staticmethod
    def _model(bidirectional, double_bias=False, units=4, channels=3, seed=0):
        encoder = LSTM(units, double_bias=double_bias)
        if bidirectional:
            encoder = Bidirectional(encoder)
        decoder = LSTM(encoder.units, return_sequences=True, double_bias=double_bias)
        model = Seq2SeqAutoencoder(
            encoder, decoder, output_dim=channels, dropout_rate=0.0, seed=seed
        )
        model.compile("rmsprop", "mse", learning_rate=0.01)
        return model

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_teacher_forced_reconstruct_equals_training_forward(self, bidirectional):
        model = self._model(bidirectional, double_bias=bidirectional)
        windows = np.random.default_rng(1).normal(size=(5, 8, 3))
        model.fit(windows, epochs=2, batch_size=2)
        trained = np.array(model.forward(windows, training=True))
        np.testing.assert_array_equal(model.forward(windows, training=False), trained)
        np.testing.assert_array_equal(model.reconstruct(windows, teacher_forcing=True), trained)

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_autoregressive_reconstruct_equals_the_old_decoder_loop(self, bidirectional):
        model = self._model(bidirectional, double_bias=bidirectional)
        windows = np.random.default_rng(2).normal(size=(5, 8, 3))
        model.fit(windows, epochs=2, batch_size=2)
        model.encoder.forward(windows, training=True)
        encoded_state = [np.array(state) for state in model.encoder.last_state]
        reference = _reference_autoregressive_decode(model, encoded_state, 5, 8, 3)
        np.testing.assert_array_equal(model.reconstruct(windows), reference)
        # ... and the encoder's inference pass is its training pass, bit for bit.
        np.testing.assert_array_equal(model.encode(windows), encoded_state[0])

    def test_backward_after_reconstruct_raises(self):
        """The inference pass dropped the decoder's BPTT tensors; none are reused."""
        model = self._model(bidirectional=False)
        windows = np.random.default_rng(3).normal(size=(2, 5, 3))
        recon = model.forward(windows, training=True)
        model.reconstruct(windows, teacher_forcing=True)
        with pytest.raises(ShapeError):
            model.backward(np.ones_like(recon))

    @pytest.mark.parametrize("inference_mode", ["autoregressive", "teacher_forcing"])
    @pytest.mark.parametrize("tier", ["iot", "cloud"])
    def test_detector_copies_carry_no_sequence_tensors(self, tier, inference_mode):
        """After detection nothing of shape (batch, time, ·) rides along in a
        deepcopy (retrainer, serving hot-swap) or a pickle (checkpoints)."""
        detector = build_seq2seq_detector(
            tier, n_channels=3, units=4, inference_mode=inference_mode, seed=0
        )
        windows = np.random.default_rng(4).normal(size=(6, 10, 3))
        detector.fit(windows, epochs=1, batch_size=3)
        detector.detect_arrays(windows)
        for clone in (copy.deepcopy(detector), pickle.loads(pickle.dumps(detector))):
            shapes = [array.shape for array in _arrays_reachable_from(clone)]
            assert shapes and all(len(shape) < 3 for shape in shapes), shapes
            np.testing.assert_array_equal(
                clone.detect_arrays(windows)[0], detector.detect_arrays(windows)[0]
            )
