"""The ``Detector`` contract, checked once for every detector shape.

Every detector the HEC system deploys — the autoencoder and the seq2seq model
in both inference modes, each on its own window layout and on the other
family's — must agree on what ``fit``, ``detect``, ``detect_arrays``,
``predict`` and ``parameter_count`` mean.  Each case builds a fresh seeded
detector, its training windows and a test batch with shifted (anomalous)
windows in it.
"""

import pickle
import re

import numpy as np
import pytest

from repro.detectors.autoencoder import AutoencoderDetector
from repro.detectors.lstm_seq2seq import Seq2SeqDetector
from repro.exceptions import NotFittedError, ShapeError
from repro.nn.layers.base import Layer

FIT = dict(epochs=3, batch_size=8, learning_rate=1e-2)


def _case(name):
    """``(fresh detector, training windows, test windows)`` for one case."""
    rng = np.random.default_rng(7)
    if name == "autoencoder":
        detector = AutoencoderDetector(24, hidden_sizes=(16, 8, 16), seed=3)
        train = rng.normal(size=(40, 24))
    elif name in ("seq2seq-autoregressive", "seq2seq-teacher-forcing"):
        teacher_forcing = name == "seq2seq-teacher-forcing"
        detector = Seq2SeqDetector(
            3, units=6, bidirectional=teacher_forcing, double_bias=teacher_forcing,
            inference_mode="teacher_forcing" if teacher_forcing else "autoregressive", seed=3,
        )
        train = rng.normal(size=(20, 8, 3))
    elif name == "expand-channel":
        # Seq2seq on univariate (n, T) windows: one channel.
        detector = Seq2SeqDetector(1, units=16, seed=3)
        train = rng.normal(size=(20, 10))
    else:
        # Autoencoder on multivariate (n, T, C) windows: flattened.
        detector = AutoencoderDetector(24, hidden_sizes=(8,), seed=3)
        train = rng.normal(size=(30, 8, 3))
    test = np.concatenate([train[:6], train[6:12] + 3.0])
    return detector, train, test


CASES = [
    "autoencoder", "seq2seq-autoregressive", "seq2seq-teacher-forcing",
    "expand-channel", "flatten",
]


@pytest.fixture(scope="module", params=CASES)
def fitted(request):
    detector, train, test = _case(request.param)
    detector.fit(train, **FIT)
    return request.param, detector, test


def _flat_weights(weights, prefix=""):
    if isinstance(weights, np.ndarray):
        return {prefix: weights}
    flat = {}
    for key, value in weights.items():
        flat.update(_flat_weights(value, f"{prefix}/{key}"))
    return flat


def _reachable(root):
    """Every object reachable from ``root`` through attributes and containers."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, np.ndarray):
            stack.append(obj.base)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack.extend(vars(obj).values())
    return found


def test_detect_equals_detect_arrays(fitted):
    _name, detector, test = fitted
    results = detector.detect(test)
    is_anomaly, confident, scores, fractions = detector.detect_arrays(test)
    np.testing.assert_array_equal(is_anomaly, [r.is_anomaly for r in results])
    np.testing.assert_array_equal(confident, [r.confident for r in results])
    np.testing.assert_array_equal(scores, [r.anomaly_score for r in results])
    np.testing.assert_array_equal(fractions, [r.anomalous_point_fraction for r in results])
    assert is_anomaly.any() and not is_anomaly.all()
    lean = detector.detect_arrays(test, with_confidence=False)
    np.testing.assert_array_equal(lean[0], is_anomaly)
    np.testing.assert_array_equal(lean[2], scores)
    assert lean[1] is None and lean[3] is None


def test_predict_is_the_lean_detection(fitted):
    _name, detector, test = fitted
    predictions = detector.predict(test)
    assert predictions.dtype.kind == "i"
    np.testing.assert_array_equal(
        predictions, detector.detect_arrays(test, with_confidence=False)[0]
    )


@pytest.mark.parametrize("name", CASES)
def test_two_fits_under_one_seed_are_equal(name):
    fits = []
    for _ in range(2):
        detector, train, test = _case(name)
        fits.append((detector.fit(train, **FIT), test))
    (first, test), (second, _test) = fits
    first_weights = _flat_weights(first.model.get_weights())
    second_weights = _flat_weights(second.model.get_weights())
    assert first_weights.keys() == second_weights.keys()
    for key, value in first_weights.items():
        np.testing.assert_array_equal(second_weights[key], value)
    for got, want in zip(second.detect_arrays(test), first.detect_arrays(test)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", CASES)
def test_detection_before_fit_raises(name):
    detector, _train, test = _case(name)
    for detect in (detector.detect, detector.detect_arrays, detector.predict):
        with pytest.raises(NotFittedError):
            detect(test)


def test_a_single_window_is_a_shape_error(fitted):
    """Every input is a batch: a bare window is refused, naming its shape."""
    _name, detector, test = fitted
    shape = str(test[0].shape)
    for call in (detector.detect, detector.detect_arrays, detector.predict,
                 detector.reconstruct):
        with pytest.raises(ShapeError, match=re.escape(shape)):
            call(test[0])


def test_parameter_count_is_the_models(fitted):
    _name, detector, _test = fitted
    assert detector.parameter_count() == detector.model.parameter_count() > 0


def test_a_fitted_detector_keeps_no_training_buffers(fitted):
    _name, detector, _test = fitted
    model = detector.model
    layers = [obj for obj in _reachable(model) if isinstance(obj, Layer)]
    assert layers and all(layer.grads == {} and layer._pairs is None for layer in layers)
    assert model.optimizer._plan is None
    weights = [param for layer in layers for param in layer.params.values()]
    # A parameter made as a view (the orthogonal initialiser's) keeps its storage alive.
    storage = weights + [param.base for param in weights if param.base is not None]
    shapes = {param.shape for param in weights}
    extras = [
        obj.shape for obj in _reachable(model)
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f"
        and obj.shape in shapes and not any(obj is kept for kept in storage)
    ]
    assert extras == []
    weight_bytes = sum(param.nbytes for param in weights)
    assert len(pickle.dumps(detector)) < 2.5 * weight_bytes
