"""Declarative fleet specifications.

A :class:`FleetSpec` describes a streaming workload: how many virtual devices
emit windows, at what rate, for how many event-clock ticks, and which stream
mutators (concept drift, bursty anomaly episodes, device churn, per-device
phase jitter) perturb the streams.  Like the rest of the experiment-spec tree
it is pure data — frozen, comparable, JSON round-trippable and overridable
with the CLI's dotted ``--set`` paths — and it hangs off
:class:`~repro.experiments.spec.ExperimentSpec` as the optional ``fleet``
node consumed by the runner's ``stream`` stage.

This module deliberately imports nothing from :mod:`repro.experiments` so the
spec tree can import it without cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.serialization import JsonRecord

#: Stream-mutator kinds understood by :meth:`MutatorSpec.build`.
MUTATOR_KINDS = (
    "concept-drift",
    "anomaly-burst",
    "device-churn",
    "phase-jitter",
    "sensor-stuck",
    "sensor-spike",
    "sensor-dropout",
    "correlated-drift",
    "camouflage",
)


@dataclass(frozen=True)
class MutatorSpec(JsonRecord):
    """One stream mutator: a ``kind`` plus the knobs that kind reads.

    Fields that do not apply to the chosen ``kind`` are ignored, mirroring how
    :class:`~repro.experiments.spec.DataSpec` treats source-specific fields.
    """

    kind: str
    # concept-drift: every device's windows drift along a per-device random
    # direction, ``drift_per_tick`` units of standardised amplitude per tick,
    # plateauing at ``drift_saturation_tick`` (0 = the drift never saturates).
    drift_per_tick: float = 0.01
    drift_saturation_tick: int = 0
    # anomaly-burst: every ``burst_period`` ticks the fleet-wide anomaly
    # probability is raised to ``burst_anomaly_rate`` for ``burst_ticks`` ticks.
    burst_period: int = 20
    burst_ticks: int = 5
    burst_anomaly_rate: float = 0.5
    # device-churn: a ``churn_fraction`` of devices goes offline for
    # ``offline_ticks`` out of every ``churn_period`` ticks (per-device phase).
    churn_fraction: float = 0.2
    offline_ticks: int = 4
    churn_period: int = 16
    # phase-jitter: each device's windows are circularly shifted by a fixed
    # per-device offset plus a per-window draw, both bounded by ``max_shift``.
    max_shift: int = 4
    # sensor-stuck: a ``stuck_fraction`` of devices emit a constant reading
    # drawn per device from N(0, ``stuck_scale``²) in standardised units.
    stuck_fraction: float = 0.1
    stuck_scale: float = 1.0
    # sensor-spike: each emitted window carries, with probability
    # ``spike_rate``, a ``spike_magnitude``-unit glitch at one random timestep.
    spike_rate: float = 0.05
    spike_magnitude: float = 6.0
    # sensor-dropout: a ``dropout_fraction`` of devices fail permanently at a
    # per-device tick drawn uniformly from [0, ``dropout_horizon``).
    dropout_fraction: float = 0.1
    dropout_horizon: int = 32
    # correlated-drift: devices share one drift direction per cohort
    # (``device_id % drift_cohorts``); directions derive from ``drift_seed``
    # alone so every shard agrees without consuming device RNG draws.
    # Reuses ``drift_per_tick``/``drift_saturation_tick`` for magnitude.
    drift_cohorts: int = 4
    drift_seed: int = 0
    # camouflage: anomalous-looking windows whose RMS amplitude exceeds
    # ``camouflage_target`` are shrunk toward it by ``camouflage_strength``
    # (1.0 = pinned exactly to the target envelope, 0.0 = untouched).
    camouflage_target: float = 1.0
    camouflage_strength: float = 0.8

    def __post_init__(self) -> None:
        if self.kind not in MUTATOR_KINDS:
            raise ConfigurationError(
                f"mutator kind must be one of {MUTATOR_KINDS}, got {self.kind!r}"
            )
        if self.drift_per_tick < 0:
            raise ConfigurationError(
                f"drift_per_tick must be non-negative, got {self.drift_per_tick}"
            )
        if self.drift_saturation_tick < 0:
            raise ConfigurationError(
                f"drift_saturation_tick must be non-negative, "
                f"got {self.drift_saturation_tick}"
            )
        if self.burst_period <= 0 or self.burst_ticks < 0:
            raise ConfigurationError(
                f"burst_period must be positive and burst_ticks non-negative, "
                f"got {self.burst_period}/{self.burst_ticks}"
            )
        if not 0.0 <= self.burst_anomaly_rate <= 1.0:
            raise ConfigurationError(
                f"burst_anomaly_rate must lie in [0, 1], got {self.burst_anomaly_rate}"
            )
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ConfigurationError(
                f"churn_fraction must lie in [0, 1], got {self.churn_fraction}"
            )
        if self.churn_period <= 0 or not 0 <= self.offline_ticks <= self.churn_period:
            raise ConfigurationError(
                f"churn needs 0 <= offline_ticks <= churn_period, got "
                f"{self.offline_ticks}/{self.churn_period}"
            )
        if self.max_shift < 0:
            raise ConfigurationError(f"max_shift must be non-negative, got {self.max_shift}")
        for name in ("stuck_fraction", "spike_rate", "dropout_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
        if self.stuck_scale < 0:
            raise ConfigurationError(
                f"stuck_scale must be non-negative, got {self.stuck_scale}"
            )
        if self.dropout_horizon <= 0:
            raise ConfigurationError(
                f"dropout_horizon must be positive, got {self.dropout_horizon}"
            )
        if self.drift_cohorts <= 0:
            raise ConfigurationError(
                f"drift_cohorts must be positive, got {self.drift_cohorts}"
            )
        if self.camouflage_target <= 0:
            raise ConfigurationError(
                f"camouflage_target must be positive, got {self.camouflage_target}"
            )
        if not 0.0 <= self.camouflage_strength <= 1.0:
            raise ConfigurationError(
                f"camouflage_strength must lie in [0, 1], "
                f"got {self.camouflage_strength}"
            )

    def build(self):
        """The concrete :mod:`repro.fleet.mutators` instance for this spec."""
        from repro.fleet.mutators import (
            AdversarialCamouflage,
            AnomalyBurst,
            ConceptDrift,
            CorrelatedDrift,
            DeviceChurn,
            PhaseJitter,
            SensorDropout,
            SensorSpike,
            SensorStuck,
        )

        if self.kind == "correlated-drift":
            return CorrelatedDrift(
                drift_per_tick=self.drift_per_tick,
                saturation_tick=self.drift_saturation_tick,
                n_cohorts=self.drift_cohorts,
                seed=self.drift_seed,
            )
        if self.kind == "camouflage":
            return AdversarialCamouflage(
                target_amplitude=self.camouflage_target,
                strength=self.camouflage_strength,
            )
        if self.kind == "sensor-stuck":
            return SensorStuck(
                stuck_fraction=self.stuck_fraction, stuck_scale=self.stuck_scale
            )
        if self.kind == "sensor-spike":
            return SensorSpike(
                spike_rate=self.spike_rate, spike_magnitude=self.spike_magnitude
            )
        if self.kind == "sensor-dropout":
            return SensorDropout(
                dropout_fraction=self.dropout_fraction, horizon=self.dropout_horizon
            )
        if self.kind == "concept-drift":
            return ConceptDrift(
                drift_per_tick=self.drift_per_tick,
                saturation_tick=self.drift_saturation_tick,
            )
        if self.kind == "anomaly-burst":
            return AnomalyBurst(
                period=self.burst_period,
                burst_ticks=self.burst_ticks,
                burst_anomaly_rate=self.burst_anomaly_rate,
            )
        if self.kind == "device-churn":
            return DeviceChurn(
                churn_fraction=self.churn_fraction,
                offline_ticks=self.offline_ticks,
                period=self.churn_period,
            )
        return PhaseJitter(max_shift=self.max_shift)


@dataclass(frozen=True)
class DeviceClassSpec(JsonRecord):
    """One heterogeneous slice of the fleet population.

    Devices are partitioned into classes by cumulative ``weight`` over the id
    range (a pure function of the spec and the device id), so shard
    partitioning never changes which class a device belongs to.  ``None``
    rate fields inherit the fleet-level value; the amplitude affine
    (``window * amplitude_scale + amplitude_offset``) reshapes the class's
    signal envelope without consuming any RNG draws.
    """

    name: str
    weight: float = 1.0
    arrival_rate: Optional[float] = None
    anomaly_rate: Optional[float] = None
    amplitude_scale: float = 1.0
    amplitude_offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("device class name must be non-empty")
        if self.weight <= 0:
            raise ConfigurationError(
                f"device class {self.name!r}: weight must be positive, "
                f"got {self.weight}"
            )
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ConfigurationError(
                f"device class {self.name!r}: arrival_rate must be positive, "
                f"got {self.arrival_rate}"
            )
        if self.anomaly_rate is not None and not 0.0 <= self.anomaly_rate <= 1.0:
            raise ConfigurationError(
                f"device class {self.name!r}: anomaly_rate must lie in [0, 1], "
                f"got {self.anomaly_rate}"
            )
        if self.amplitude_scale <= 0:
            raise ConfigurationError(
                f"device class {self.name!r}: amplitude_scale must be positive, "
                f"got {self.amplitude_scale}"
            )


@dataclass(frozen=True)
class LoadCurveSpec(JsonRecord):
    """A time-varying multiplier on the fleet's Poisson arrival rates.

    ``rate_multiplier(tick)`` is a pure function shared by
    :class:`~repro.fleet.devices.DeviceFleet` and the serving load generator,
    so the diurnal swing and the flash-crowd spike hit fleet simulation and
    the front door in the same tick windows.
    """

    #: Sinusoidal swing: rate × (1 + amplitude·sin(2π·tick/period)).
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 24
    #: Flash crowd: rate × flash_multiplier for ticks in
    #: [flash_at_tick, flash_at_tick + flash_ticks).
    flash_multiplier: float = 1.0
    flash_at_tick: int = 0
    flash_ticks: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ConfigurationError(
                f"diurnal_amplitude must lie in [0, 1), "
                f"got {self.diurnal_amplitude}"
            )
        if self.diurnal_period <= 0:
            raise ConfigurationError(
                f"diurnal_period must be positive, got {self.diurnal_period}"
            )
        if self.flash_multiplier < 1.0:
            raise ConfigurationError(
                f"flash_multiplier must be >= 1, got {self.flash_multiplier}"
            )
        if self.flash_at_tick < 0 or self.flash_ticks < 0:
            raise ConfigurationError(
                f"flash window must be non-negative, got "
                f"{self.flash_at_tick}/{self.flash_ticks}"
            )

    def rate_multiplier(self, tick: int) -> float:
        """The (positive) arrival-rate multiplier in effect at ``tick``."""
        multiplier = 1.0
        if self.diurnal_amplitude > 0.0:
            multiplier *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * tick / self.diurnal_period
            )
        if self.flash_ticks > 0 and (
            self.flash_at_tick <= tick < self.flash_at_tick + self.flash_ticks
        ):
            multiplier *= self.flash_multiplier
        return multiplier


@dataclass(frozen=True)
class FleetSpec(JsonRecord):
    """A streaming fleet workload attached to an experiment.

    ``seed`` is the fleet's own stream seed; the engine folds it together with
    the experiment's master seed and each device id, so ``repro fleet --seed``
    reseeds every device stream while two devices never share one.
    """

    n_devices: int = 100
    ticks: int = 40
    #: Mean windows emitted per online device per tick (Poisson arrivals).
    arrival_rate: float = 0.5
    #: Baseline probability that an emitted window is drawn from the anomaly pool.
    anomaly_rate: float = 0.08
    seed: int = 0
    #: Ticks aggregated into one online-metrics window (windowed accuracy/F1).
    metrics_window: int = 8
    #: Capacity of the bounded delay reservoir behind the percentile estimates.
    reservoir_size: int = 2048
    #: Shards the devices stream as (:mod:`repro.fleet.sharding`); the
    #: report equals the one-shard report whatever the count.
    n_shards: int = 1
    mutators: Tuple[MutatorSpec, ...] = ()
    #: Heterogeneous population slices; empty = one homogeneous class.
    device_classes: Tuple[DeviceClassSpec, ...] = ()
    #: Time-varying arrival-rate driver; ``None`` = constant rate.
    load_curve: Optional[LoadCurveSpec] = None

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ConfigurationError(f"n_devices must be positive, got {self.n_devices}")
        if self.ticks <= 0:
            raise ConfigurationError(f"ticks must be positive, got {self.ticks}")
        if self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival_rate must be positive, got {self.arrival_rate}"
            )
        if not 0.0 <= self.anomaly_rate <= 1.0:
            raise ConfigurationError(
                f"anomaly_rate must lie in [0, 1], got {self.anomaly_rate}"
            )
        if self.metrics_window <= 0:
            raise ConfigurationError(
                f"metrics_window must be positive, got {self.metrics_window}"
            )
        if self.reservoir_size <= 0:
            raise ConfigurationError(
                f"reservoir_size must be positive, got {self.reservoir_size}"
            )
        if self.n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {self.n_shards}")
        if self.n_shards > self.n_devices:
            raise ConfigurationError(
                f"n_shards ({self.n_shards}) cannot exceed n_devices ({self.n_devices})"
            )
        object.__setattr__(self, "mutators", tuple(self.mutators))
        object.__setattr__(self, "device_classes", tuple(self.device_classes))
        names = [cls.name for cls in self.device_classes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate device class names: {sorted(names)}")

    def build_mutators(self):
        """Concrete mutator instances, in spec order."""
        return tuple(mutator.build() for mutator in self.mutators)

    # -- heterogeneous classes -------------------------------------------

    def class_boundaries(self) -> Tuple[int, ...]:
        """Exclusive upper device-id bound of each class, last == n_devices.

        Pure function of the spec: cumulative class weights mapped onto the
        id range, so the class of a device never depends on sharding.
        """
        if not self.device_classes:
            return ()
        total = sum(cls.weight for cls in self.device_classes)
        cumulative = 0.0
        bounds = []
        for cls in self.device_classes:
            cumulative += cls.weight
            bounds.append(int(math.floor(cumulative / total * self.n_devices)))
        bounds[-1] = self.n_devices
        return tuple(bounds)

    def class_columns(self, device_ids) -> Tuple[np.ndarray, ...]:
        """Class parameters of the devices ``device_ids``, one float column
        each: ``(arrival rates, anomaly rates, amplitude scales, amplitude
        offsets)``.  ``None`` class rates inherit the fleet-level value; a
        homogeneous fleet is one identity-amplitude class."""
        ids = np.asarray(device_ids, dtype=np.int64)
        if not self.device_classes:
            per_class = [(self.arrival_rate, self.anomaly_rate, 1.0, 0.0)]
            member = np.zeros(ids.shape[0], dtype=np.int64)
        else:
            per_class = [
                (
                    self.arrival_rate if cls.arrival_rate is None else cls.arrival_rate,
                    self.anomaly_rate if cls.anomaly_rate is None else cls.anomaly_rate,
                    cls.amplitude_scale,
                    cls.amplitude_offset,
                )
                for cls in self.device_classes
            ]
            # A device belongs to the first class whose exclusive bound
            # exceeds its id.
            member = np.searchsorted(self.class_boundaries(), ids, side="right")
        return tuple(np.array(per_class, dtype=float).T[:, member])

    def rate_multiplier(self, tick: int) -> float:
        """Load-curve arrival multiplier at ``tick`` (1.0 without a curve)."""
        if self.load_curve is None:
            return 1.0
        return self.load_curve.rate_multiplier(tick)
