"""Tests for the autoencoder and seq2seq detectors."""

import copy
import pickle

import numpy as np
import pytest

from repro.detectors.autoencoder import (
    UNIVARIATE_TIER_ARCHITECTURES,
    AutoencoderDetector,
    build_autoencoder_detector,
)
from repro.detectors.base import DetectionResult
from repro.detectors.lstm_seq2seq import (
    MULTIVARIATE_TIER_ARCHITECTURES,
    Seq2SeqDetector,
    build_seq2seq_detector,
)
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.lstm import LSTM


class TestAutoencoderDetector:
    def test_fit_and_detect_shapes(self, trained_autoencoder, power_scaled):
        _train, test_windows, _labels = power_scaled
        results = trained_autoencoder.detect(test_windows[:5])
        assert len(results) == 5
        assert all(isinstance(result, DetectionResult) for result in results)

    def test_predictions_are_binary(self, trained_autoencoder, power_scaled):
        _train, test_windows, _labels = power_scaled
        predictions = trained_autoencoder.predict(test_windows)
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_detects_obvious_anomaly(self, trained_autoencoder, power_scaled):
        train_windows, _test, _labels = power_scaled
        corrupted = train_windows[:1].copy()
        corrupted[0, : corrupted.shape[1] // 2] += 8.0
        assert trained_autoencoder.predict(corrupted)[0] == 1

    def test_normal_training_windows_mostly_clean(self, trained_autoencoder, power_scaled):
        train_windows, _test, _labels = power_scaled
        predictions = trained_autoencoder.predict(train_windows)
        # The threshold is the training minimum, so training windows are never flagged.
        assert predictions.sum() == 0

    def test_separates_real_test_set(self, trained_autoencoder, power_scaled):
        _train, test_windows, test_labels = power_scaled
        predictions = trained_autoencoder.predict(test_windows)
        anomaly_rate_on_anomalies = predictions[test_labels == 1].mean()
        anomaly_rate_on_normals = predictions[test_labels == 0].mean()
        assert anomaly_rate_on_anomalies > anomaly_rate_on_normals

    def test_reconstruction_shape(self, trained_autoencoder, power_scaled):
        _train, test_windows, _labels = power_scaled
        recon = trained_autoencoder.reconstruct(test_windows[:3])
        assert recon.shape == test_windows[:3].shape

    def test_window_size_validated(self, trained_autoencoder):
        with pytest.raises(ShapeError):
            trained_autoencoder.detect(np.zeros((2, 5)))

    def test_context_features_none_for_autoencoder(self, trained_autoencoder, power_scaled):
        _train, test_windows, _labels = power_scaled
        assert trained_autoencoder.context_features(test_windows[:2]) is None

    def test_parameter_count(self):
        detector = AutoencoderDetector(window_size=10, hidden_sizes=(4,), seed=0)
        assert detector.parameter_count() == (10 * 4 + 4) + (4 * 10 + 10)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            AutoencoderDetector(window_size=0, hidden_sizes=(4,))
        with pytest.raises(ConfigurationError):
            AutoencoderDetector(window_size=8, hidden_sizes=())

    def test_builder_tiers(self):
        for tier in ("iot", "edge", "cloud"):
            detector = build_autoencoder_detector(tier, window_size=14, hidden_sizes=(4,), seed=0)
            assert tier in detector.name.lower() or detector.name.startswith("AE")

    def test_builder_unknown_tier(self):
        with pytest.raises(ConfigurationError):
            build_autoencoder_detector("fog", window_size=14)

    def test_paper_scale_iot_parameter_count(self):
        """At the paper's 672-sample window the AE-IoT parameter count matches Table I exactly."""
        detector = build_autoencoder_detector("iot", window_size=672, seed=0)
        assert detector.parameter_count() == 271_017

    def test_paper_architectures_increase_in_size(self):
        counts = []
        for tier in ("iot", "edge", "cloud"):
            detector = build_autoencoder_detector(tier, window_size=672, seed=0)
            counts.append(detector.parameter_count())
        assert counts[0] < counts[1] < counts[2]

    def test_architecture_table_keys(self):
        assert set(UNIVARIATE_TIER_ARCHITECTURES) == {"iot", "edge", "cloud"}


class TestSeq2SeqDetector:
    def test_fit_and_detect(self, trained_seq2seq, mhealth_windows):
        windows = mhealth_windows.windows[:4]
        results = trained_seq2seq.detect(windows)
        assert len(results) == 4

    def test_point_scores_length_matches_window(self, trained_seq2seq, mhealth_windows):
        window = mhealth_windows.windows[:1]
        result = trained_seq2seq.detect(window)[0]
        assert result.point_scores.shape == (mhealth_windows.window_size,)

    def test_context_features_shape(self, trained_seq2seq, mhealth_windows):
        features = trained_seq2seq.context_features(mhealth_windows.windows[:6])
        assert features.shape == (6, trained_seq2seq.units)

    def test_channel_mismatch_rejected(self, trained_seq2seq):
        with pytest.raises(ShapeError):
            trained_seq2seq.detect(np.zeros((2, 10, 3)))

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            Seq2SeqDetector(n_channels=0, units=4)
        with pytest.raises(ConfigurationError):
            Seq2SeqDetector(n_channels=3, units=0)
        with pytest.raises(ConfigurationError):
            Seq2SeqDetector(n_channels=3, units=4, inference_mode="psychic")

    def test_builder_cloud_is_bidirectional(self):
        detector = build_seq2seq_detector("cloud", n_channels=4, units=3, seed=0)
        assert detector.bidirectional
        assert detector.name == "BiLSTM-seq2seq-Cloud"

    def test_builder_unknown_tier(self):
        with pytest.raises(ConfigurationError):
            build_seq2seq_detector("fog", n_channels=4)

    def test_paper_scale_iot_parameter_count(self):
        """At 18 channels and 50 units the LSTM-seq2seq-IoT parameter count matches Table I."""
        detector = build_seq2seq_detector("iot", n_channels=18, seed=0)
        detector.model.build(timesteps=4, features=18)
        assert detector.parameter_count() == 28_518

    def test_paper_scale_edge_parameter_count(self):
        """The edge model (CuDNN double-bias convention) matches Table I exactly."""
        detector = build_seq2seq_detector("edge", n_channels=18, seed=0)
        detector.model.build(timesteps=4, features=18)
        assert detector.parameter_count() == 97_818

    def test_paper_scale_cloud_parameter_count_close(self):
        """The cloud BiLSTM model is within 1 % of the paper's 1,028,018 parameters."""
        detector = build_seq2seq_detector("cloud", n_channels=18, seed=0)
        detector.model.build(timesteps=4, features=18)
        count = detector.parameter_count()
        assert abs(count - 1_028_018) / 1_028_018 < 0.01

    def test_architecture_table_ordering(self):
        assert (
            MULTIVARIATE_TIER_ARCHITECTURES["iot"].units
            < MULTIVARIATE_TIER_ARCHITECTURES["edge"].units
            <= MULTIVARIATE_TIER_ARCHITECTURES["cloud"].units
        )

    def test_detects_anomalous_activity(self, trained_seq2seq, mhealth_windows):
        from repro.data.preprocessing import StandardScaler
        from repro.data.splits import anomaly_detection_split

        split = anomaly_detection_split(mhealth_windows, rng=0, anomaly_test_fraction=0.2)
        scaler = StandardScaler().fit(split.train.windows)
        test = scaler.transform(split.test.windows)
        predictions = trained_seq2seq.predict(test)
        labels = split.test.labels
        anomaly_rate_on_anomalies = predictions[labels == 1].mean() if np.any(labels == 1) else 0
        anomaly_rate_on_normals = predictions[labels == 0].mean() if np.any(labels == 0) else 0
        assert anomaly_rate_on_anomalies >= anomaly_rate_on_normals


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


def _float_arrays(root):
    """Every float ndarray reachable from ``root`` through attributes and containers."""
    return [
        obj for obj in _reachable(root)
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f"
    ]


class TestFittedDetectorKeepsOnlyWeights:
    """``fit`` ends by freeing gradient buffers, optimiser moments and forward caches."""

    @pytest.fixture(scope="class", params=["autoencoder", "seq2seq"])
    def case(self, request, power_scaled, mhealth_windows):
        if request.param == "autoencoder":
            windows = power_scaled[0]
            detector = AutoencoderDetector(windows.shape[1], hidden_sizes=(32, 16, 32), seed=0)
        else:
            windows = mhealth_windows.windows[:12]
            detector = Seq2SeqDetector(mhealth_windows.windows.shape[2], units=16, seed=0)
        detector.fit(windows, epochs=2, batch_size=8)
        return detector, windows

    def test_bidirectional_encoder_keeps_no_bptt_tensors(self, mhealth_windows):
        """The stacked encoder's (time + 1, 2, batch, units) states go with ``fit``."""
        windows = mhealth_windows.windows[:12]
        units, timesteps = 8, windows.shape[1]
        detector = Seq2SeqDetector(
            mhealth_windows.windows.shape[2], units=units, bidirectional=True, seed=0
        )
        detector.fit(windows, epochs=2, batch_size=8)
        stacked = {
            shape
            for batch in (8, 4)  # the two batch sizes of 12 windows in batches of 8
            for shape in ((timesteps + 1, 2, batch, units), (2, timesteps + 1, batch, units))
        }
        assert [a.shape for a in _float_arrays(detector) if a.shape in stacked] == []
        assert detector.model.encoder._cache is None
        weights = [param for param, _grad in detector.model.parameters_and_gradients()]
        detector.model.release_training_buffers()
        weight_bytes = sum(param.nbytes for param in weights)
        assert len(pickle.dumps(detector)) < 2.5 * weight_bytes

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_no_lstm_keeps_an_initial_state_gradient(self, bidirectional, mhealth_windows):
        detector = Seq2SeqDetector(
            mhealth_windows.windows.shape[2], units=8, bidirectional=bidirectional, seed=0
        )
        detector.fit(mhealth_windows.windows[:12], epochs=1, batch_size=8)
        lstms = [obj for obj in _reachable(detector) if isinstance(obj, LSTM)]
        assert len(lstms) == (3 if bidirectional else 2)  # encoder (two directions), decoder
        assert [lstm.grad_initial_state for lstm in lstms] == [None] * len(lstms)

    def test_copies_refit_like_the_original(self, case):
        detector, windows = case
        refits = [copy.deepcopy(detector), pickle.loads(pickle.dumps(detector)), detector]
        for candidate in refits:
            candidate.fit(windows, epochs=2, batch_size=8)
        scores = [[r.anomaly_score for r in candidate.detect(windows)] for candidate in refits]
        assert scores[0] == scores[2] and scores[1] == scores[2]
        for candidate in refits[:-1]:
            for (got, _), (want, _) in zip(
                candidate.model.parameters_and_gradients(),
                detector.model.parameters_and_gradients(),
            ):
                np.testing.assert_array_equal(got, want)
