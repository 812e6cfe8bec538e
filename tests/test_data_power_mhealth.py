"""Tests for the synthetic power and MHEALTH dataset generators."""

import numpy as np
import pytest

from repro.data.datasets import TimeSeriesDataset
from repro.data.mhealth import ACTIVITY_NAMES, MHealthConfig, N_CHANNELS, generate_mhealth_dataset
from repro.data.power import (
    ANOMALY_KINDS,
    DAYS_PER_WEEK,
    PowerDatasetConfig,
    generate_power_dataset,
    weekly_windows,
)
from repro.exceptions import DataGenerationError


class TestPowerConfig:
    def test_defaults_match_paper_shape(self):
        config = PowerDatasetConfig()
        assert config.weeks == 52
        assert config.samples_per_day == 96

    def test_total_counts(self):
        config = PowerDatasetConfig(weeks=2, samples_per_day=24)
        assert config.total_days == 14
        assert config.total_samples == 14 * 24

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weeks": 0},
            {"samples_per_day": 2},
            {"anomalous_day_fraction": 1.0},
            {"anomalous_day_fraction": -0.1},
            {"noise_std": -1.0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(DataGenerationError):
            PowerDatasetConfig(**kwargs)


class TestPowerGeneration:
    def test_output_type_and_length(self, power_dataset, power_config):
        assert isinstance(power_dataset, TimeSeriesDataset)
        assert power_dataset.n_timesteps == power_config.total_samples
        assert power_dataset.values.ndim == 1

    def test_labels_mark_whole_days(self, power_dataset, power_config):
        spd = power_config.samples_per_day
        day_labels = power_dataset.labels.reshape(-1, spd)
        # Every day is either fully normal or fully anomalous.
        per_day = day_labels.sum(axis=1)
        assert set(np.unique(per_day)).issubset({0, spd})

    def test_anomalous_fraction_close_to_requested(self):
        config = PowerDatasetConfig(weeks=30, samples_per_day=24, anomalous_day_fraction=0.1, seed=0)
        dataset = generate_power_dataset(config)
        day_anomalous = dataset.metadata["day_is_anomalous"]
        achieved = day_anomalous.mean()
        assert abs(achieved - 0.1) < 0.02

    def test_anomalies_only_on_weekdays(self, power_dataset):
        day_anomalous = power_dataset.metadata["day_is_anomalous"]
        for day, flag in enumerate(day_anomalous):
            if flag:
                assert day % DAYS_PER_WEEK < 5

    def test_anomaly_kinds_recorded(self, power_dataset):
        kinds = power_dataset.metadata["day_kind"]
        used = {kind for kind in kinds.tolist() if kind}
        assert used.issubset(set(ANOMALY_KINDS))
        assert used, "at least one anomaly kind should be present"

    def test_deterministic_given_seed(self):
        config = PowerDatasetConfig(weeks=4, samples_per_day=24, seed=9)
        a = generate_power_dataset(config)
        b = generate_power_dataset(config)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_power_dataset(PowerDatasetConfig(weeks=4, samples_per_day=24, seed=1))
        b = generate_power_dataset(PowerDatasetConfig(weeks=4, samples_per_day=24, seed=2))
        assert not np.allclose(a.values, b.values)

    def test_weekday_weekend_structure(self):
        config = PowerDatasetConfig(weeks=8, samples_per_day=24, anomalous_day_fraction=0.0, seed=0)
        dataset = generate_power_dataset(config)
        days = dataset.values.reshape(-1, 24)
        weekday_mean = np.mean([days[i].mean() for i in range(len(days)) if i % 7 < 5])
        weekend_mean = np.mean([days[i].mean() for i in range(len(days)) if i % 7 >= 5])
        assert weekday_mean > weekend_mean

    def test_too_many_anomalies_rejected(self):
        with pytest.raises(DataGenerationError):
            generate_power_dataset(
                PowerDatasetConfig(weeks=2, samples_per_day=24, anomalous_day_fraction=0.9)
            )


class TestWeeklyWindows:
    def test_window_shape(self, power_dataset, power_config):
        windows, labels = weekly_windows(power_dataset, power_config.samples_per_day)
        assert windows.shape == (power_config.weeks, 7 * power_config.samples_per_day)
        assert labels.shape == (power_config.weeks,)

    def test_window_label_matches_day_labels(self, power_dataset, power_config):
        windows, labels = weekly_windows(power_dataset, power_config.samples_per_day)
        day_anomalous = power_dataset.metadata["day_is_anomalous"].reshape(-1, DAYS_PER_WEEK)
        expected = (day_anomalous.sum(axis=1) > 0).astype(int)
        np.testing.assert_array_equal(labels, expected)

    def test_uses_metadata_samples_per_day(self, power_dataset):
        windows, _ = weekly_windows(power_dataset)
        assert windows.shape[1] == int(power_dataset.metadata["samples_per_day"]) * 7

    def test_too_short_series_rejected(self):
        dataset = TimeSeriesDataset(values=np.zeros(10), labels=np.zeros(10, dtype=int))
        with pytest.raises(DataGenerationError):
            weekly_windows(dataset, samples_per_day=24)


class TestMHealthConfig:
    def test_normal_activity_resolution(self):
        assert MHealthConfig(normal_activity="walking").normal_activity_index == 3
        assert MHealthConfig(normal_activity=5).normal_activity_index == 5

    def test_unknown_activity_rejected(self):
        with pytest.raises(DataGenerationError):
            MHealthConfig(normal_activity="levitating")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DataGenerationError):
            MHealthConfig(normal_activity=12)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_subjects": 0}, {"seconds_per_activity": 0}, {"sampling_rate_hz": 0}, {"noise_std": -1}],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(DataGenerationError):
            MHealthConfig(**kwargs)

    def test_samples_per_activity(self):
        config = MHealthConfig(seconds_per_activity=2.0, sampling_rate_hz=50.0)
        assert config.samples_per_activity == 100


class TestMHealthGeneration:
    def test_shape_and_channels(self, mhealth_dataset, mhealth_config):
        expected_length = (
            mhealth_config.n_subjects
            * len(ACTIVITY_NAMES)
            * mhealth_config.samples_per_activity
        )
        assert mhealth_dataset.values.shape == (expected_length, N_CHANNELS)
        assert N_CHANNELS == 18

    def test_labels_follow_normal_activity(self, mhealth_dataset):
        activity = mhealth_dataset.metadata["activity"]
        normal_index = int(mhealth_dataset.metadata["normal_activity_index"])
        expected = (activity != normal_index).astype(int)
        np.testing.assert_array_equal(mhealth_dataset.labels, expected)

    def test_all_subjects_and_activities_present(self, mhealth_dataset, mhealth_config):
        assert set(np.unique(mhealth_dataset.metadata["subject"])) == set(
            range(mhealth_config.n_subjects)
        )
        assert set(np.unique(mhealth_dataset.metadata["activity"])) == set(
            range(len(ACTIVITY_NAMES))
        )

    def test_deterministic_given_seed(self):
        config = MHealthConfig(n_subjects=1, seconds_per_activity=2.0, sampling_rate_hz=20.0, seed=5)
        a = generate_mhealth_dataset(config)
        b = generate_mhealth_dataset(config)
        np.testing.assert_array_equal(a.values, b.values)

    def test_activity_signatures_differ(self, mhealth_dataset):
        """Windows of different activities must be distinguishable (different energy)."""
        activity = mhealth_dataset.metadata["activity"]
        values = mhealth_dataset.values
        walking = values[activity == 3]
        lying = values[activity == 2]
        # Dynamic activity has higher variance than a static posture.
        assert walking.std(axis=0).mean() > lying.std(axis=0).mean()

    def test_gravity_offset_on_accelerometer_z(self, mhealth_dataset):
        mean_channels = mhealth_dataset.values.mean(axis=0)
        assert mean_channels[2] > 5.0
        assert mean_channels[11] > 5.0
