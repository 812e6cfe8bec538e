"""Tests for windowing, preprocessing, dataset containers and splits."""

import numpy as np
import pytest

from repro.data.datasets import LabeledWindows, TimeSeriesDataset
from repro.data.preprocessing import StandardScaler
from repro.data.splits import anomaly_detection_split, policy_training_split
from repro.data.windowing import sliding_windows, window_labels, windows_from_dataset
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError


class TestTimeSeriesDataset:
    def test_basic_properties(self):
        dataset = TimeSeriesDataset(values=np.zeros((10, 3)), labels=np.zeros(10, dtype=int))
        assert dataset.n_timesteps == 10
        assert dataset.as_2d().shape == (10, 3)

    def test_univariate_channel_count(self):
        dataset = TimeSeriesDataset(values=np.zeros(5), labels=np.zeros(5, dtype=int))
        assert dataset.as_2d().shape == (5, 1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            TimeSeriesDataset(values=np.zeros(5), labels=np.zeros(4, dtype=int))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ShapeError):
            TimeSeriesDataset(values=np.zeros(3), labels=np.array([0, 1, 2]))


class TestLabeledWindows:
    def _windows(self):
        return LabeledWindows(
            windows=np.arange(12, dtype=float).reshape(4, 3),
            labels=np.array([0, 1, 0, 1]),
            start_indices=np.array([0, 3, 6, 9]),
        )

    def test_properties(self):
        windows = self._windows()
        assert len(windows) == 4
        assert windows.window_size == 3

    def test_subset_preserves_start_indices(self):
        windows = self._windows()
        subset = windows.subset(np.array([1, 3]))
        np.testing.assert_array_equal(subset.start_indices, [3, 9])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            LabeledWindows(windows=np.zeros((3, 2)), labels=np.zeros(2, dtype=int))

    def test_multichannel_windows(self):
        windows = LabeledWindows(windows=np.zeros((2, 4, 5)), labels=np.zeros(2, dtype=int))
        assert windows.windows.shape == (2, 4, 5) and windows.window_size == 4


class TestSlidingWindows:
    def test_count_and_shape(self):
        series = np.arange(10, dtype=float)
        windows, starts = sliding_windows(series, window_size=4, stride=2)
        assert windows.shape == (4, 4)
        np.testing.assert_array_equal(starts, [0, 2, 4, 6])

    def test_values_match_source(self):
        series = np.arange(10, dtype=float)
        windows, starts = sliding_windows(series, 3, 3)
        for window, start in zip(windows, starts):
            np.testing.assert_array_equal(window, series[start: start + 3])

    def test_multichannel(self):
        series = np.arange(20, dtype=float).reshape(10, 2)
        windows, _ = sliding_windows(series, 4, 2)
        assert windows.shape == (4, 4, 2)

    def test_window_longer_than_series_rejected(self):
        with pytest.raises(ShapeError):
            sliding_windows(np.zeros(3), 5, 1)

    @pytest.mark.parametrize("window_size,stride", [(0, 1), (3, 0)])
    def test_invalid_geometry(self, window_size, stride):
        with pytest.raises(ShapeError):
            sliding_windows(np.zeros(10), window_size, stride)

    def test_window_labels_any_point(self):
        labels = np.array([0, 0, 1, 0, 0, 0])
        starts = np.array([0, 2, 4])
        result = window_labels(labels, starts, window_size=2)
        np.testing.assert_array_equal(result, [0, 1, 0])

    def test_window_labels_threshold(self):
        labels = np.array([0, 1, 1, 1])
        result = window_labels(labels, np.array([0]), window_size=4, anomaly_threshold=0.8)
        np.testing.assert_array_equal(result, [0])

    def test_windows_from_dataset_purity(self, mhealth_dataset):
        pure = windows_from_dataset(mhealth_dataset, window_size=24, stride=12, purity="activity")
        activity = mhealth_dataset.metadata["activity"]
        for start in pure.start_indices:
            segment = activity[start: start + 24]
            assert len(set(segment.tolist())) == 1

    def test_windows_from_dataset_univariate_squeezes_channel(self):
        dataset = TimeSeriesDataset(values=np.arange(20, dtype=float), labels=np.zeros(20, dtype=int))
        windows = windows_from_dataset(dataset, window_size=5, stride=5)
        assert windows.windows.ndim == 2


class TestStandardScaler:
    def test_univariate_fit_transform(self):
        data = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(20, 10))
        scaled = StandardScaler().fit(data).transform(data)
        assert abs(scaled.mean()) < 1e-9
        assert abs(scaled.std() - 1.0) < 1e-9

    def test_per_channel_statistics(self):
        rng = np.random.default_rng(0)
        data = np.stack(
            [rng.normal(loc=[0.0, 100.0], scale=[1.0, 10.0], size=(30, 2)) for _ in range(8)]
        )
        scaler = StandardScaler().fit(data)
        scaled = scaler.transform(data)
        means = scaled.reshape(-1, 2).mean(axis=0)
        stds = scaled.reshape(-1, 2).std(axis=0)
        np.testing.assert_allclose(means, 0.0, atol=1e-9)
        np.testing.assert_allclose(stds, 1.0, atol=1e-9)

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_constant_channel_does_not_divide_by_zero(self):
        data = np.ones((4, 6))
        scaled = StandardScaler().fit(data).transform(data)
        assert np.all(np.isfinite(scaled))

    def test_empty_data_rejected(self):
        with pytest.raises(ShapeError):
            StandardScaler().fit(np.zeros((0, 3)))


class TestSplits:
    def _windows(self, n_normal=20, n_anomalous=10):
        windows = np.random.default_rng(0).normal(size=(n_normal + n_anomalous, 6))
        labels = np.array([0] * n_normal + [1] * n_anomalous)
        return LabeledWindows(windows=windows, labels=labels)

    def test_ad_split_train_is_pure_normal(self):
        split = anomaly_detection_split(self._windows(), rng=0)
        assert np.all(split.train.labels == 0)

    def test_ad_split_test_contains_both_classes(self):
        split = anomaly_detection_split(self._windows(), anomaly_test_fraction=0.5, rng=0)
        assert np.any(split.test.labels == 1)
        assert np.any(split.test.labels == 0)

    def test_ad_split_respects_normal_fraction(self):
        windows = self._windows(n_normal=100, n_anomalous=10)
        split = anomaly_detection_split(windows, normal_train_fraction=0.7, rng=0)
        assert len(split.train) == 70

    def test_ad_split_anomaly_fraction_per_group(self):
        windows = self._windows(n_normal=20, n_anomalous=20)
        groups = np.array([0] * 20 + [1] * 10 + [2] * 10)
        split = anomaly_detection_split(
            windows, anomaly_test_fraction=0.5, anomaly_groups=groups, rng=0
        )
        anomalous_test = int(np.sum(split.test.labels == 1))
        assert anomalous_test == 10  # half of each of the two anomalous groups

    def test_ad_split_no_overlap(self):
        windows = self._windows()
        windows.start_indices = np.arange(len(windows))
        split = anomaly_detection_split(windows, rng=0)
        train_ids = set(split.train.start_indices.tolist())
        test_ids = set(split.test.start_indices.tolist())
        assert not train_ids & test_ids

    def test_ad_split_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            anomaly_detection_split(self._windows(), normal_train_fraction=1.5)

    def test_policy_split_training_composition(self):
        windows = self._windows(n_normal=100, n_anomalous=40)
        train, test = policy_training_split(
            windows, normal_fraction=0.3, anomaly_fraction=0.25, rng=0
        )
        assert len(test) == len(windows)
        assert int(np.sum(train.labels == 0)) == 30
        assert int(np.sum(train.labels == 1)) == 10

    def test_policy_split_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            policy_training_split(self._windows(), normal_fraction=0.0)

    def test_groups_length_validated(self):
        with pytest.raises(ConfigurationError):
            anomaly_detection_split(self._windows(), anomaly_groups=np.zeros(3), rng=0)
