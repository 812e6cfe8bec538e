"""The one reconstruction loop against the two loops it replaced.

``_ReferenceEarlyStopping``, ``_reference_sequential_fit`` and
``_reference_seq2seq_fit`` are the former ``EarlyStopping``,
``Sequential.fit`` and ``Seq2SeqAutoencoder.fit``, copied with the
``train_on_batch``, ``parameters_and_gradients``, ``regularization_penalty`` and
``iterate_minibatches`` they called; ``_reference_detector_fit`` is the former
``AutoencoderDetector.fit``/``Seq2SeqDetector.fit``.  The same seeded detector
is trained once through the references and once through
``AnomalyDetector.fit``: weights, loss history, epoch count and the fitted
scorer must agree bit for bit.
"""

import numpy as np
import pytest

from repro.detectors.autoencoder import AutoencoderDetector
from repro.detectors.lstm_seq2seq import Seq2SeqDetector
from repro.nn.training import TrainingHistory
from repro.utils.rng import ensure_rng

# -- the references -------------------------------------------------------------------


class _ReferenceEarlyStopping:
    def __init__(self, patience=5, min_delta=0.0, mode="min"):
        self.patience = int(patience)
        self.min_delta = float(abs(min_delta))
        self.mode = mode
        self.best = None
        self.wait = 0

    def update(self, epoch, history):
        if not history.losses:
            return False
        current = history.losses[-1]
        if self.best is None:
            self.best = current
            self.wait = 0
            return False
        if self.mode == "min":
            improved = current < self.best - self.min_delta
        else:
            improved = current > self.best + self.min_delta
        if improved:
            self.best = current
            self.wait = 0
            return False
        self.wait += 1
        return self.wait >= self.patience


def _reference_iterate_minibatches(inputs, targets, batch_size, shuffle=True, rng=None):
    indices = np.arange(inputs.shape[0])
    if shuffle:
        ensure_rng(rng).shuffle(indices)
    for start in range(0, inputs.shape[0], batch_size):
        batch_idx = indices[start: start + batch_size]
        yield inputs[batch_idx], (targets[batch_idx] if targets is not None else None)


def _sequential_pairs(model):
    pairs = []
    for layer in model.layers:
        if layer.built:
            pairs.extend(layer.parameters_and_gradients())
    return pairs


def _reference_sequential_train_on_batch(model, inputs, targets):
    predictions = model.forward(inputs, training=True)
    penalty = float(sum(layer.regularization_penalty() for layer in model.layers))
    loss_value = model.loss.value(predictions, targets) + penalty
    grad = model.loss.gradient(predictions, targets)
    model.backward(grad)
    model.optimizer.step(_sequential_pairs(model))
    return float(loss_value)


def _reference_sequential_fit(model, inputs, targets=None, epochs=10, batch_size=32,
                              shuffle=True, early_stopping=None):
    inputs = np.asarray(inputs, dtype=float)
    autoencoding = targets is None
    train_targets = None if autoencoding else np.asarray(targets, dtype=float)
    history = TrainingHistory()
    for epoch in range(1, epochs + 1):
        epoch_losses = []
        for batch_inputs, batch_targets in _reference_iterate_minibatches(
            inputs, train_targets, batch_size, shuffle=shuffle, rng=model._rng
        ):
            if autoencoding:
                batch_targets = batch_inputs
            epoch_losses.append(
                _reference_sequential_train_on_batch(model, batch_inputs, batch_targets)
            )
        history.losses.append(float(np.mean(epoch_losses)))
        if early_stopping is not None and early_stopping.update(epoch, history):
            break
    return history


def _reference_seq2seq_train_on_batch(model, inputs):
    components = (model.encoder, model.decoder, model.projection)
    inputs = np.asarray(inputs, dtype=float)
    reconstruction = model.forward(inputs, training=True)
    penalty = float(sum(c.regularization_penalty() for c in components))
    loss_value = model.loss.value(reconstruction, inputs) + penalty
    grad = model.loss.gradient(reconstruction, inputs)
    model.backward(grad)
    pairs = []
    for component in components:
        pairs.extend(component.parameters_and_gradients())
    model.optimizer.step(pairs)
    return float(loss_value)


def _reference_seq2seq_fit(model, windows, epochs=10, batch_size=16, shuffle=True,
                           early_stopping=None):
    windows = np.asarray(windows, dtype=float)
    history = TrainingHistory()
    for epoch in range(1, epochs + 1):
        losses = []
        for batch, _ in _reference_iterate_minibatches(
            windows, None, batch_size, shuffle=shuffle, rng=model._rng
        ):
            losses.append(_reference_seq2seq_train_on_batch(model, batch))
        history.losses.append(float(np.mean(losses)))
        if early_stopping is not None and early_stopping.update(epoch, history):
            break
    return history


def _reference_detector_fit(detector, windows, epochs, batch_size, learning_rate, patience):
    """The former per-family ``fit``; returns the history the model recorded."""
    windows = detector._check_windows(windows)
    autoencoder = isinstance(detector, AutoencoderDetector)
    detector.model.compile("adam" if autoencoder else "rmsprop", "mse",
                           learning_rate=learning_rate)
    stopper = (
        _ReferenceEarlyStopping(patience=patience)
        if patience is not None
        else None
    )
    fit = _reference_sequential_fit if autoencoder else _reference_seq2seq_fit
    history = fit(detector.model, windows, epochs=epochs, batch_size=batch_size,
                  early_stopping=stopper)
    detector.model.release_training_buffers()
    if autoencoder:
        errors = windows - detector.model.predict(windows)
        detector.scorer.fit(errors.reshape(-1, 1))
    else:
        errors = windows - detector.reconstruct(windows)
        detector.scorer.fit(errors.reshape(-1, detector.n_channels))
    detector.fitted = True
    return history


# -- the pins -------------------------------------------------------------------------


def _case(name):
    rng = np.random.default_rng(11)
    if name == "autoencoder":
        return (
            lambda: AutoencoderDetector(16, hidden_sizes=(12, 6, 12), seed=5),
            rng.normal(size=(26, 16)),
        )
    bidirectional = name == "bidirectional-seq2seq"
    return (
        lambda: Seq2SeqDetector(3, units=5, bidirectional=bidirectional,
                                double_bias=bidirectional, seed=5),
        rng.normal(size=(22, 7, 3)),
    )


#: (epochs, learning rate, patience): a run whose patience fires before its
#: last epoch, and a run without early stopping.
RUNS = {"patience-fires": (40, 0.05, 1), "no-patience": (6, 1e-2, None)}


def _flat_weights(weights, prefix=""):
    if isinstance(weights, np.ndarray):
        return {prefix: weights}
    flat = {}
    for key, value in weights.items():
        flat.update(_flat_weights(value, f"{prefix}/{key}"))
    return flat


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize(
    "name", ["autoencoder", "unidirectional-seq2seq", "bidirectional-seq2seq"]
)
def test_one_loop_equals_the_two_it_replaced(name, run):
    build, windows = _case(name)
    epochs, learning_rate, patience = RUNS[run]

    reference = build()
    reference_history = _reference_detector_fit(
        reference, windows, epochs, 8, learning_rate, patience
    )
    subject = build().fit(
        windows, epochs=epochs, batch_size=8, learning_rate=learning_rate,
        early_stopping_patience=patience,
    )

    if patience is None:
        assert reference_history.epochs == epochs
    else:
        assert reference_history.epochs < epochs  # the patience fired
    assert subject.model.history.epochs == reference_history.epochs
    np.testing.assert_array_equal(
        subject.model.history.losses, reference_history.losses
    )
    want = _flat_weights(reference.model.get_weights())
    got = _flat_weights(subject.model.get_weights())
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])
    np.testing.assert_array_equal(subject.scorer.mean_, reference.scorer.mean_)
    np.testing.assert_array_equal(subject.scorer.covariance_, reference.scorer.covariance_)
    np.testing.assert_array_equal(subject.scorer.threshold, reference.scorer.threshold)
