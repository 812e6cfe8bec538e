"""Tests for repro.nn.training and repro.nn.quantization."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, LSTM
from repro.nn.models.seq2seq import Seq2SeqAutoencoder
from repro.nn.models.sequential import Sequential
from repro.nn.quantization import quantization_report, quantize_model
from repro.nn.training import EarlyStopping, TrainingHistory, iterate_minibatches


class TestTrainingHistory:
    def test_record_and_last(self):
        history = TrainingHistory()
        history.record("loss", 1.0)
        history.record("loss", 0.5)
        assert history.last("loss") == 0.5
        assert history.epochs == 2

    def test_missing_metric_raises(self):
        with pytest.raises(KeyError):
            TrainingHistory().last("loss")


class TestEarlyStopping:
    def _history_with(self, values):
        history = TrainingHistory()
        for value in values:
            history.record("loss", value)
        return history

    def test_stops_after_patience(self):
        stopper = EarlyStopping(monitor="loss", patience=2)
        history = TrainingHistory()
        stops = []
        for epoch, value in enumerate([1.0, 0.9, 0.95, 0.96, 0.97], start=1):
            history.record("loss", value)
            stops.append(stopper.update(epoch, history))
        assert stops == [False, False, False, True, True] or stops[3] is True

    def test_improvement_resets_patience(self):
        stopper = EarlyStopping(monitor="loss", patience=2)
        history = TrainingHistory()
        for epoch, value in enumerate([1.0, 0.99, 0.5, 0.51, 0.52], start=1):
            history.record("loss", value)
            stopped = stopper.update(epoch, history)
        assert stopped is True
        assert stopper.best == 0.5

    def test_max_mode(self):
        stopper = EarlyStopping(monitor="reward", patience=1, mode="max")
        history = TrainingHistory()
        history.record("reward", 1.0)
        assert stopper.update(1, history) is False
        history.record("reward", 0.5)
        assert stopper.update(2, history) is True

    def test_missing_metric_is_ignored(self):
        stopper = EarlyStopping(monitor="val_loss", patience=1)
        history = self._history_with([1.0])
        assert stopper.update(1, history) is False

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            EarlyStopping(patience=-1)
        with pytest.raises(ConfigurationError):
            EarlyStopping(mode="sideways")


class TestMinibatches:
    def test_covers_all_samples(self):
        x = np.arange(10)[:, None].astype(float)
        seen = []
        for batch, _ in iterate_minibatches(x, None, batch_size=3, shuffle=False):
            seen.extend(batch[:, 0].tolist())
        assert sorted(seen) == list(range(10))

    def test_shuffle_changes_order(self):
        x = np.arange(20)[:, None].astype(float)
        ordered = [b[:, 0].tolist() for b, _ in iterate_minibatches(x, None, 5, shuffle=False)]
        shuffled = [b[:, 0].tolist() for b, _ in iterate_minibatches(x, None, 5, shuffle=True, rng=0)]
        assert ordered != shuffled

    def test_targets_stay_aligned(self):
        x = np.arange(8)[:, None].astype(float)
        y = x * 10
        for batch_x, batch_y in iterate_minibatches(x, y, 3, shuffle=True, rng=1):
            np.testing.assert_allclose(batch_y, batch_x * 10)

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            list(iterate_minibatches(np.zeros((4, 1)), None, 0))

    def test_mismatched_targets(self):
        with pytest.raises(ConfigurationError):
            list(iterate_minibatches(np.zeros((4, 1)), np.zeros((5, 1)), 2))


class TestQuantization:
    def _model(self):
        model = Sequential([Dense(8, activation="tanh"), Dense(4)], seed=0)
        model.build(4)
        return model

    def test_report_without_mutation(self):
        model = self._model()
        before = model.get_weights()
        report = quantization_report(model)
        after = model.get_weights()
        np.testing.assert_array_equal(
            before["0:dense"]["kernel"], after["0:dense"]["kernel"]
        )
        assert report.compression_ratio == pytest.approx(2.0)

    def test_quantize_changes_values_within_fp16_error(self):
        model = self._model()
        before = model.get_weights()["0:dense"]["kernel"].copy()
        report = quantize_model(model)
        after = model.get_weights()["0:dense"]["kernel"]
        assert report.max_absolute_error < 1e-2
        np.testing.assert_allclose(after, before, atol=1e-2)
        # Values must now be exactly representable in float16.
        np.testing.assert_array_equal(after, after.astype(np.float16).astype(float))

    def test_parameter_count_matches_model(self):
        model = self._model()
        report = quantize_model(model)
        assert report.parameter_count == model.parameter_count()

    def test_quantized_seq2seq_predictions_close(self):
        model = Seq2SeqAutoencoder(LSTM(4), LSTM(4, return_sequences=True), output_dim=2, seed=0)
        model.compile("rmsprop", "mse")
        windows = np.random.default_rng(0).normal(size=(3, 5, 2))
        model.fit(windows, epochs=2, batch_size=3)
        before = model.reconstruct(windows, teacher_forcing=True)
        quantize_model(model)
        after = model.reconstruct(windows, teacher_forcing=True)
        np.testing.assert_allclose(after, before, atol=5e-2)
