"""Tests for repro.nn.training and repro.nn.quantization."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, LSTM
from repro.nn.models.seq2seq import Seq2SeqAutoencoder
from repro.nn.models.sequential import Sequential
from repro.nn.quantization import quantization_report, quantize_model
from repro.nn.training import TrainingHistory, iterate_minibatches


class TestTrainingHistory:
    def test_one_loss_series(self):
        history = TrainingHistory()
        assert history.epochs == 0
        history.losses.extend([1.0, 0.5])
        assert history.losses[-1] == 0.5
        assert history.epochs == 2

    def test_fit_records_one_mean_loss_per_epoch(self):
        model = Sequential([Dense(3), Dense(2)], seed=0)
        model.compile("adam", "mse")
        history = model.fit(np.ones((8, 2)), epochs=3, batch_size=4)
        assert history is model.history
        assert history.epochs == 3 and len(history.losses) == 3
        assert all(isinstance(loss, float) for loss in history.losses)


class TestFitPatience:
    """``fit(patience=)`` stops once the epoch loss has not dropped below its
    best for ``patience`` epochs; the epoch losses are scripted here (one
    batch per epoch)."""

    @staticmethod
    def _epoch_losses(losses, patience):
        model = Sequential([Dense(2)], seed=0)
        model.compile("adam", "mse")
        script = iter(losses)
        model.train_on_batch = lambda batch: next(script)
        history = model.fit(np.zeros((4, 2)), epochs=len(losses), batch_size=4, patience=patience)
        return history.losses

    def test_stops_after_patience(self):
        losses = [1.0, 0.9, 0.95, 0.96, 0.97]
        assert self._epoch_losses(losses, patience=2) == [1.0, 0.9, 0.95, 0.96]

    def test_improvement_resets_patience(self):
        losses = [1.0, 0.99, 0.5, 0.51, 0.52, 0.53]
        assert self._epoch_losses(losses, patience=2) == [1.0, 0.99, 0.5, 0.51, 0.52]

    def test_an_equal_loss_is_no_improvement(self):
        assert self._epoch_losses([1.0, 1.0, 0.5], patience=1) == [1.0, 1.0]

    def test_no_patience_runs_every_epoch(self):
        losses = [1.0, 2.0, 3.0, 4.0]
        assert self._epoch_losses(losses, patience=None) == losses

    def test_negative_patience_rejected(self):
        with pytest.raises(ConfigurationError):
            self._epoch_losses([1.0], patience=-1)


class TestMinibatches:
    def test_covers_all_samples(self):
        x = np.arange(10)[:, None].astype(float)
        seen = []
        for batch in iterate_minibatches(x, batch_size=3, rng=0):
            seen.extend(batch[:, 0].tolist())
        assert sorted(seen) == list(range(10))

    def test_one_shuffled_order_per_generator_state(self):
        x = np.arange(20)[:, None].astype(float)
        first = [b[:, 0].tolist() for b in iterate_minibatches(x, 5, rng=0)]
        again = [b[:, 0].tolist() for b in iterate_minibatches(x, 5, rng=0)]
        assert first == again
        assert sum(first, []) != list(range(20))

    def test_invalid_batch_size(self):
        with pytest.raises(ConfigurationError):
            list(iterate_minibatches(np.zeros((4, 1)), 0))


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
