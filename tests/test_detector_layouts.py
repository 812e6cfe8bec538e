"""Edge cases of the window layout each detector family reads.

A detector input is always a batch ``(n, ...)``.  The autoencoder flattens
the trailing axes of each window into one vector; the seq2seq model reads
``(n, T, C)`` batches, and a univariate ``(n, T)`` batch as one channel.
These are the shapes mixed-family deployments hit: window lengths that do not
divide evenly, a T·C product the autoencoder width does not take,
single-channel input, and the error messages (they must name the offending
shape so ``--set`` mistakes are debuggable).  A family on the other family's
layout is the same detector as on the batch reshaped by hand.
"""

import re

import numpy as np
import pytest

from repro.detectors.autoencoder import AutoencoderDetector
from repro.detectors.lstm_seq2seq import Seq2SeqDetector
from repro.exceptions import ShapeError

FIT = dict(epochs=2, batch_size=4, learning_rate=1e-2)


def _normal(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


def _shape_error(call, windows, *fragments):
    """``call(windows)`` raises a ShapeError naming the shape and ``fragments``."""
    with pytest.raises(ShapeError) as excinfo:
        call(windows)
    message = str(excinfo.value)
    for fragment in (str(np.shape(windows)),) + fragments:
        assert fragment in message, message


class TestAutoencoderLayout:
    def test_trailing_axes_flatten_row_major(self):
        """(n, 7, 3) reads as (n, 21): timestep-major, channel-minor."""
        detector = AutoencoderDetector(21, hidden_sizes=(4,), seed=0)
        windows = np.arange(2 * 7 * 3, dtype=float).reshape(2, 7, 3)
        reconstruction = detector.reconstruct(windows)
        assert reconstruction.shape == (2, 21)
        np.testing.assert_array_equal(
            reconstruction, detector.reconstruct(np.arange(42.0).reshape(2, 21))
        )

    def test_a_product_the_width_does_not_take_names_the_shape(self):
        """7 x 3 = 21 values per window, but the autoencoder is 20 wide."""
        detector = AutoencoderDetector(20, hidden_sizes=(4,), seed=0)
        _shape_error(detector.reconstruct, np.zeros((2, 7, 3)), "21", "20")

    def test_single_channel_input_is_the_univariate_layout(self):
        detector = AutoencoderDetector(9, hidden_sizes=(4,), seed=0)
        windows = _normal(4, 9, 1)
        np.testing.assert_array_equal(
            detector.reconstruct(windows), detector.reconstruct(windows[:, :, 0])
        )

    def test_a_bare_window_names_its_shape(self):
        detector = AutoencoderDetector(4, hidden_sizes=(2,), seed=0)
        _shape_error(detector.reconstruct, np.zeros(4), "batch")

    def test_an_odd_length_window_is_its_own_width(self):
        detector = AutoencoderDetector(17, hidden_sizes=(4,), seed=0)
        assert detector.reconstruct(np.zeros((5, 17))).shape == (5, 17)


class TestSeq2SeqLayout:
    def test_an_odd_length_univariate_batch_gets_one_channel(self):
        """A prime window length (n, 17) reads as (n, 17, 1)."""
        detector = Seq2SeqDetector(1, units=3, seed=0)
        assert detector.reconstruct(np.zeros((5, 17))).shape == (5, 17, 1)

    def test_a_univariate_batch_equals_its_channel_layout(self):
        detector = Seq2SeqDetector(1, units=3, seed=0)
        windows = _normal(3, 11)
        np.testing.assert_array_equal(
            detector.reconstruct(windows), detector.reconstruct(windows[:, :, None])
        )
        np.testing.assert_array_equal(
            detector.context_features(windows),
            detector.context_features(windows[:, :, None]),
        )

    def test_a_univariate_batch_needs_a_one_channel_detector(self):
        detector = Seq2SeqDetector(3, units=3, seed=0)
        _shape_error(detector.reconstruct, np.zeros((2, 4)), "expects 3")

    def test_a_channel_mismatch_names_the_shape(self):
        detector = Seq2SeqDetector(2, units=3, seed=0)
        _shape_error(detector.reconstruct, np.zeros((2, 5, 3)), "expects 2")

    @pytest.mark.parametrize("shape", [(4,), (2, 4, 3, 1)])
    def test_other_ranks_name_their_shape(self, shape):
        detector = Seq2SeqDetector(1, units=3, seed=0)
        _shape_error(detector.reconstruct, np.zeros(shape), "batch")

    def test_context_features_check_the_layout(self):
        detector = Seq2SeqDetector(2, units=3, seed=0)
        _shape_error(detector.context_features, np.zeros((2, 5)), "expects 2")


def _pair(family):
    """``(detector on the other layout, twin on the reshaped batch, windows, reshaped)``."""
    if family == "autoencoder":
        windows = _normal(12, 6, 3, seed=1)
        subject, twin = (AutoencoderDetector(18, hidden_sizes=(5,), seed=4) for _ in range(2))
        reshaped = windows.reshape(12, 18)
    else:
        windows = _normal(12, 7, seed=1)
        subject, twin = (Seq2SeqDetector(1, units=3, seed=4) for _ in range(2))
        reshaped = windows[:, :, None]
    return subject, twin, windows, reshaped


@pytest.mark.parametrize("family", ["autoencoder", "seq2seq"])
def test_the_other_layout_is_the_reshaped_batch(family):
    """Fitting and detecting on the other family's layout equals doing both on
    the batch reshaped by hand, bit for bit."""
    subject, twin, windows, reshaped = _pair(family)
    subject.fit(windows, **FIT)
    twin.fit(reshaped, **FIT)
    assert subject.model.history.losses == twin.model.history.losses
    for key, value in twin.scorer.get_state().items():
        np.testing.assert_array_equal(subject.scorer.get_state()[key], value)
    test = np.concatenate([windows[:4], windows[4:8] + 3.0])
    test_reshaped = np.concatenate([reshaped[:4], reshaped[4:8] + 3.0])
    for got, want in zip(subject.detect_arrays(test), twin.detect_arrays(test_reshaped)):
        np.testing.assert_array_equal(got, want)
    points = 18 if family == "autoencoder" else 7
    assert subject.detect(test)[0].point_scores.shape == (points,)


@pytest.mark.parametrize("family", ["autoencoder", "seq2seq"])
def test_fit_refuses_a_bare_window(family):
    subject, _twin, windows, _reshaped = _pair(family)
    with pytest.raises(ShapeError, match=re.escape(str(windows[0].shape))):
        subject.fit(windows[0], **FIT)
