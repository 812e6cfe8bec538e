"""Synthetic univariate power-consumption dataset.

The paper's univariate experiments use a public power-demand series whose
normal behaviour is a strongly weekly-periodic load curve (five working days
with a pronounced daytime peak, followed by two low-demand weekend days);
anomalies are days whose shape departs from that pattern (e.g. a holiday
falling on a weekday, or an unusually low/high demand day).

Because this reproduction runs offline, :func:`generate_power_dataset`
synthesises a series with exactly that structure: ``weeks`` weeks sampled at
``samples_per_day`` points per day (default 96, i.e. 15-minute sampling, one
year by default), where a configurable fraction of days is replaced by one of
several anomaly shapes.  Detection windows and the contextual features used by
the policy network are built downstream from this series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.exceptions import DataGenerationError
from repro.data.datasets import TimeSeriesDataset
from repro.utils.rng import RngLike, ensure_rng

#: Number of days per synthetic week.
DAYS_PER_WEEK = 7

#: Anomaly shapes that can be injected into a day.
ANOMALY_KINDS = ("flat_day", "missing_peak", "double_peak", "high_night")


@dataclass(frozen=True)
class PowerDatasetConfig:
    """Configuration of the synthetic power-consumption generator.

    Attributes
    ----------
    weeks:
        Number of weeks to generate (the paper's dataset covers roughly one
        year; 52 weeks by default).
    samples_per_day:
        Samples per day (default 96 = 15-minute sampling).
    anomalous_day_fraction:
        Fraction of days (over the whole series) whose shape is replaced by an
        anomalous pattern.
    noise_std:
        Standard deviation of the additive Gaussian observation noise,
        relative to a unit-amplitude daily profile.
    weekend_level:
        Demand level of weekend days relative to the weekday peak.
    seed:
        Seed of the generator (``None`` for non-deterministic output).
    """

    weeks: int = 52
    samples_per_day: int = 96
    anomalous_day_fraction: float = 0.05
    noise_std: float = 0.05
    weekend_level: float = 0.35
    seed: RngLike = 7

    def __post_init__(self) -> None:
        if self.weeks <= 0:
            raise DataGenerationError(f"weeks must be positive, got {self.weeks}")
        if self.samples_per_day < 4:
            raise DataGenerationError(
                f"samples_per_day must be at least 4, got {self.samples_per_day}"
            )
        if not 0.0 <= self.anomalous_day_fraction < 1.0:
            raise DataGenerationError(
                "anomalous_day_fraction must lie in [0, 1), got "
                f"{self.anomalous_day_fraction}"
            )
        if self.noise_std < 0:
            raise DataGenerationError(f"noise_std must be non-negative, got {self.noise_std}")

    @property
    def total_days(self) -> int:
        """Total number of days in the generated series."""
        return self.weeks * DAYS_PER_WEEK

    @property
    def total_samples(self) -> int:
        """Total number of samples in the generated series."""
        return self.total_days * self.samples_per_day


def _weekday_profile(samples_per_day: int) -> np.ndarray:
    """Normalised demand curve of a working day: low at night, high plateau at daytime."""
    hours = np.linspace(0.0, 24.0, samples_per_day, endpoint=False)
    morning_ramp = 1.0 / (1.0 + np.exp(-(hours - 7.0) * 1.8))
    evening_drop = 1.0 / (1.0 + np.exp((hours - 20.0) * 1.5))
    base = 0.25 + 0.75 * morning_ramp * evening_drop
    lunch_dip = 0.08 * np.exp(-0.5 * ((hours - 13.0) / 1.0) ** 2)
    return base - lunch_dip


def _weekend_profile(samples_per_day: int, level: float) -> np.ndarray:
    """Normalised demand curve of a weekend day: low and flat with a mild midday bump."""
    hours = np.linspace(0.0, 24.0, samples_per_day, endpoint=False)
    bump = 0.15 * np.exp(-0.5 * ((hours - 14.0) / 3.0) ** 2)
    return level + bump


def _anomalous_day(kind: str, samples_per_day: int, weekend_level: float,
                   rng: np.random.Generator) -> np.ndarray:
    """One anomalous day of the requested ``kind`` (see :data:`ANOMALY_KINDS`)."""
    hours = np.linspace(0.0, 24.0, samples_per_day, endpoint=False)
    if kind == "flat_day":
        # A weekday that behaves like a holiday: flat, weekend-like demand.
        return _weekend_profile(samples_per_day, weekend_level * rng.uniform(0.9, 1.1))
    if kind == "missing_peak":
        # The daytime plateau partially collapses part-way through the day.  The
        # collapse depth varies, so some of these days are subtle and only the
        # higher-capacity models reconstruct normal weeks tightly enough to
        # notice them.
        profile = _weekday_profile(samples_per_day).copy()
        collapse_start = int(samples_per_day * rng.uniform(0.35, 0.5))
        profile[collapse_start:] *= rng.uniform(0.45, 0.75)
        return profile
    if kind == "double_peak":
        # An extra demand surge late in the evening (variable magnitude).
        profile = _weekday_profile(samples_per_day).copy()
        surge = rng.uniform(0.35, 0.6) * np.exp(-0.5 * ((hours - 22.0) / 1.0) ** 2)
        return profile + surge
    if kind == "high_night":
        # Abnormally high demand during the night hours.
        profile = _weekday_profile(samples_per_day).copy()
        night = (hours < 5.0) | (hours > 22.5)
        profile[night] += rng.uniform(0.3, 0.55)
        return profile
    raise DataGenerationError(f"unknown anomaly kind {kind!r}")


def generate_power_dataset(config: PowerDatasetConfig | None = None) -> TimeSeriesDataset:
    """Generate the synthetic power-consumption series.

    Returns a :class:`~repro.data.datasets.TimeSeriesDataset` whose ``labels``
    mark every sample of an anomalous day as 1.  The ``metadata`` dictionary
    records, per day, whether it is anomalous and which anomaly kind was used
    (empty string for normal days).
    """
    config = config or PowerDatasetConfig()
    rng = ensure_rng(config.seed)
    spd = config.samples_per_day

    weekday = _weekday_profile(spd)
    weekend = _weekend_profile(spd, config.weekend_level)

    total_days = config.total_days
    n_anomalous = int(round(config.anomalous_day_fraction * total_days))
    # Only weekdays become anomalous: a flat weekend day is normal by definition.
    weekday_indices = [d for d in range(total_days) if d % DAYS_PER_WEEK < 5]
    if n_anomalous > len(weekday_indices):
        raise DataGenerationError(
            "anomalous_day_fraction too large: "
            f"{n_anomalous} anomalous days requested but only {len(weekday_indices)} weekdays exist"
        )
    anomalous_days = set(
        rng.choice(weekday_indices, size=n_anomalous, replace=False).tolist()
        if n_anomalous
        else []
    )

    values = np.zeros(config.total_samples)
    labels = np.zeros(config.total_samples, dtype=int)
    day_is_anomalous = np.zeros(total_days, dtype=int)
    day_kind: list[str] = []

    for day in range(total_days):
        day_of_week = day % DAYS_PER_WEEK
        start = day * spd
        stop = start + spd
        if day in anomalous_days:
            kind = str(rng.choice(ANOMALY_KINDS))
            profile = _anomalous_day(kind, spd, config.weekend_level, rng)
            labels[start:stop] = 1
            day_is_anomalous[day] = 1
            day_kind.append(kind)
        else:
            profile = weekday if day_of_week < 5 else weekend
            day_kind.append("")
        scale = rng.uniform(0.95, 1.05)
        noise = rng.normal(0.0, config.noise_std, size=spd)
        values[start:stop] = scale * profile + noise

    return TimeSeriesDataset(
        values=values,
        labels=labels,
        sampling_rate_hz=spd / (24.0 * 3600.0),
        name="synthetic-power",
        metadata={
            "day_is_anomalous": day_is_anomalous,
            "day_kind": np.asarray(day_kind),
            "samples_per_day": np.asarray(spd),
        },
    )


def weekly_windows(dataset: TimeSeriesDataset, samples_per_day: int | None = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Cut a power series into non-overlapping weekly windows.

    Returns ``(windows, labels)`` with ``windows`` of shape
    ``(n_weeks, 7 * samples_per_day)`` and a window labelled anomalous when it
    contains at least one anomalous day.  Weekly windows are what the paper's
    autoencoders consume (and what the per-day contextual features summarise).
    """
    if samples_per_day is None:
        stored = dataset.metadata.get("samples_per_day")
        if stored is None:
            raise DataGenerationError(
                "samples_per_day not provided and absent from dataset metadata"
            )
        samples_per_day = int(stored)
    samples_per_week = samples_per_day * DAYS_PER_WEEK
    n_weeks = dataset.n_timesteps // samples_per_week
    if n_weeks == 0:
        raise DataGenerationError(
            f"series too short ({dataset.n_timesteps} samples) for one weekly window "
            f"({samples_per_week} samples)"
        )
    usable = n_weeks * samples_per_week
    windows = dataset.values[:usable].reshape(n_weeks, samples_per_week)
    label_windows = dataset.labels[:usable].reshape(n_weeks, samples_per_week)
    labels = (label_windows.sum(axis=1) > 0).astype(int)
    return windows, labels
