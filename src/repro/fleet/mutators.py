"""Stream mutators: controlled non-stationarity for device window streams.

A mutator perturbs one aspect of a fleet's stream.  Its hooks are consumed by
:class:`~repro.fleet.devices.DeviceFleet`, which evaluates a whole block of
devices at once:

* :meth:`StreamMutator.create_batch` — called once per block of device ids
  when a fleet is built, drawing any per-device parameters as columns from
  the generator the fleet hands it (positioned by the block and the mutator's
  place in the spec, so the parameters are independent of how devices are
  partitioned across shards and of which other mutators are stacked);
* :meth:`StreamMutator.online_batch` / :meth:`StreamMutator.anomaly_rate_batch`
  — pure functions of those columns and the tick (no RNG draws), evaluated
  over the fleet's devices;
* :meth:`StreamMutator.draw_batch` — the per-window RNG draws of the
  transform, one row per arrival of the block;
* :meth:`StreamMutator.transform_batch` — the window math, applied to the
  tick's stacked ``(n, *window_shape)`` batch given those draws.

The concrete mutators cover the scenarios the paper's fleet premise implies
but the offline replay could never exercise: gradual concept drift, bursty
fleet-wide anomaly episodes, device churn/dropout, per-device phase jitter,
and the sensor-level fault models used by fault injection (stuck-at sensors,
transient spikes, permanent sensor dropout).  Each batch hook is pinned by
test to the plain per-device / per-window NumPy expression it vectorises.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

#: A mutator's columnar device states: ``(n_devices, ...)`` arrays by name.
States = Optional[Dict[str, np.ndarray]]


class StreamMutator:
    """Base class: a no-op perturbation of a device stream."""

    def create_batch(
        self, rng: np.random.Generator, device_ids: np.ndarray, window_shape: tuple
    ) -> States:
        """Per-device parameters of the devices ``device_ids``, as columns.

        ``rng`` is this mutator's creation generator for the block; every
        column's leading axis is ``len(device_ids)``.  ``None`` (the base
        class) means the mutator keeps no device state.
        """
        return None

    def online_batch(self, states: States, tick: int) -> Optional[np.ndarray]:
        """Which devices emit at ``tick``, as a ``(n_devices,)`` bool mask
        (``None``: all of them)."""
        return None

    def anomaly_rate_batch(
        self, base_rates: np.ndarray, states: States, tick: int
    ) -> np.ndarray:
        """The effective per-device anomaly probabilities at ``tick``."""
        return base_rates

    def draw_batch(
        self, rng: np.random.Generator, n: int, window_shape: tuple
    ) -> Optional[np.ndarray]:
        """The RNG values this mutator's transform needs for ``n`` windows,
        as an array with one row per window.

        ``None`` means the transform draws nothing (the base class and every
        built-in except phase jitter and sensor spikes).
        """
        return None

    def transform_batch(
        self,
        windows: np.ndarray,
        states: States,
        rows: np.ndarray,
        tick: int,
        draws: Optional[np.ndarray],
    ) -> np.ndarray:
        """The emitted view of one tick's sampled pool windows.

        ``windows`` is the ``(n, *window_shape)`` float batch (safe to modify
        in place — the caller owns it), ``rows`` maps each window to its
        device's row in ``states``, and ``draws`` carries the windows'
        :meth:`draw_batch` rows in arrival order.  The base transform is the
        identity.
        """
        return windows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _unit_directions(directions: np.ndarray) -> np.ndarray:
    """Scale each ``directions[i]`` to unit Euclidean norm (in place)."""
    flat = directions.reshape(directions.shape[0], -1)
    norms = np.sqrt(np.square(flat).sum(axis=1))
    norms[norms == 0.0] = 1.0
    flat /= norms[:, None]
    return directions


class ConceptDrift(StreamMutator):
    """Gradual distribution shift along a per-device random direction.

    Each device drifts away from the training distribution by
    ``drift_per_tick`` standardised units per tick along a unit direction
    drawn at creation.  Labels are untouched: the drifted windows are still
    "normal", which is exactly what degrades the deployed detectors over time
    and shows up in the windowed online metrics.
    """

    def __init__(self, drift_per_tick: float = 0.01, saturation_tick: int = 0) -> None:
        self.drift_per_tick = float(drift_per_tick)
        #: Tick after which the drift amplitude stops growing (the stream has
        #: settled into a new regime); 0 means the drift never saturates.
        self.saturation_tick = int(saturation_tick)

    def create_batch(self, rng, device_ids, window_shape):
        directions = rng.normal(size=(len(device_ids), *window_shape))
        return {"directions": _unit_directions(directions)}

    def transform_batch(self, windows, states, rows, tick, draws):
        if self.saturation_tick > 0:
            tick = min(tick, self.saturation_tick)
        # Per window: w + (drift * tick) * direction, one elementwise add.
        windows += self.drift_per_tick * tick * states["directions"][rows]
        return windows


class AnomalyBurst(StreamMutator):
    """Fleet-wide bursty anomaly episodes.

    Every ``period`` ticks, the anomaly probability jumps to
    ``burst_anomaly_rate`` for the first ``burst_ticks`` ticks of the period —
    an anomaly storm hitting the whole fleet at once, visible as spikes in the
    windowed anomaly fraction and load on the upper tiers.
    """

    def __init__(
        self,
        period: int = 20,
        burst_ticks: int = 5,
        burst_anomaly_rate: float = 0.5,
    ) -> None:
        self.period = int(period)
        self.burst_ticks = int(burst_ticks)
        self.burst_anomaly_rate = float(burst_anomaly_rate)

    def in_burst(self, tick: int) -> bool:
        """Whether ``tick`` falls inside a burst episode."""
        return tick % self.period < self.burst_ticks

    def anomaly_rate_batch(self, base_rates, states, tick):
        if self.in_burst(tick):
            return np.full(len(base_rates), self.burst_anomaly_rate)
        return base_rates


class DeviceChurn(StreamMutator):
    """Periodic device dropout: a fraction of the fleet goes dark and returns.

    At creation each device decides whether it churns and, if so, at which
    phase of the ``period`` its ``offline_ticks``-long outage falls.
    Online-ness is then a pure function of the tick, so churn never perturbs
    the draws behind the surviving windows.
    """

    def __init__(
        self,
        churn_fraction: float = 0.2,
        offline_ticks: int = 4,
        period: int = 16,
    ) -> None:
        self.churn_fraction = float(churn_fraction)
        self.offline_ticks = int(offline_ticks)
        self.period = int(period)

    def create_batch(self, rng, device_ids, window_shape):
        n = len(device_ids)
        return {
            "churns": rng.random(n) < self.churn_fraction,
            "phases": rng.integers(0, self.period, size=n),
        }

    def online_batch(self, states, tick):
        return ~states["churns"] | (
            (tick + states["phases"]) % self.period >= self.offline_ticks
        )


class PhaseJitter(StreamMutator):
    """Per-device phase misalignment: windows arrive circularly shifted.

    Models devices whose windowing is not aligned with the training data
    (clock skew, late joiners): each device has a fixed base shift plus a
    small per-window draw, both bounded by ``max_shift`` timesteps.
    """

    def __init__(self, max_shift: int = 4) -> None:
        self.max_shift = int(max_shift)

    def create_batch(self, rng, device_ids, window_shape):
        shift = self.max_shift
        return {"base_shifts": rng.integers(-shift, shift + 1, size=len(device_ids))}

    def draw_batch(self, rng, n, window_shape):
        return rng.integers(-1, 2, size=n) if self.max_shift else None

    def transform_batch(self, windows, states, rows, tick, draws):
        shifts = states["base_shifts"][rows]
        if self.max_shift:
            shifts = shifts + draws
        length = windows.shape[1]
        shifts = shifts % length
        moved = np.flatnonzero(shifts)
        if moved.size:
            # result[i] = window[(i - shift) % length] is exactly
            # np.roll(window, shift, axis=0) — a pure permutation.
            gather = (np.arange(length)[None, :] - shifts[moved, None]) % length
            windows[moved] = windows[moved][np.arange(moved.size)[:, None], gather]
        return windows


class SensorStuck(StreamMutator):
    """Stuck-at sensor fault: a fraction of devices emit a constant reading.

    At creation each device decides whether its sensor is stuck and, if so,
    at which constant standardised value.  A stuck device
    keeps sampling — and labelling — windows from the pool exactly as a
    healthy one would, but what it *emits* is the constant, so ground truth
    is preserved while the observable signal is destroyed.  That is the
    classic stuck-at fault: the detector sees garbage uncorrelated with the
    process label.
    """

    def __init__(self, stuck_fraction: float = 0.1, stuck_scale: float = 1.0) -> None:
        self.stuck_fraction = float(stuck_fraction)
        #: Standard deviation of the per-device stuck value (standardised units).
        self.stuck_scale = float(stuck_scale)

    def create_batch(self, rng, device_ids, window_shape):
        n = len(device_ids)
        return {
            "stuck": rng.random(n) < self.stuck_fraction,
            "values": rng.normal(0.0, self.stuck_scale, size=n),
        }

    def transform_batch(self, windows, states, rows, tick, draws):
        mask = states["stuck"][rows]
        if mask.any():
            values = states["values"][rows[mask]]
            # Per window: np.full(window.shape, stuck_value).
            windows[mask] = values.reshape((-1,) + (1,) * (windows.ndim - 1))
        return windows


class SensorSpike(StreamMutator):
    """Transient sensor spikes: occasional windows carry one corrupted timestep.

    With probability ``spike_rate`` per emitted window, ``spike_magnitude``
    standardised units are added to every channel of one uniformly drawn
    timestep — a glitch reading, not an anomaly in the monitored process, so
    labels are untouched and the fault shows up as false positives.
    """

    def __init__(self, spike_rate: float = 0.05, spike_magnitude: float = 6.0) -> None:
        self.spike_rate = float(spike_rate)
        self.spike_magnitude = float(spike_magnitude)

    def draw_batch(self, rng, n, window_shape):
        # The spiked timestep of each window, -1 where the window is clean.
        spiked = rng.random(n) < self.spike_rate
        return np.where(spiked, rng.integers(window_shape[0], size=n), -1)

    def transform_batch(self, windows, states, rows, tick, draws):
        hit = np.flatnonzero(draws >= 0)
        if hit.size:
            # Per spiked window: window[index] += magnitude (every channel
            # of that one timestep).
            windows[hit, draws[hit]] += self.spike_magnitude
        return windows


class SensorDropout(StreamMutator):
    """Permanent sensor failure: some devices go dark partway through the run.

    At creation each device decides whether it fails and draws its failure
    tick uniformly from ``[0, horizon)``; from that tick on it never emits
    again.  Unlike :class:`DeviceChurn` the outage is permanent — the fleet
    shrinks, tier load redistributes, and online-ness stays a pure function
    of the tick so the surviving devices' streams are unperturbed.
    """

    def __init__(self, dropout_fraction: float = 0.1, horizon: int = 32) -> None:
        self.dropout_fraction = float(dropout_fraction)
        self.horizon = int(horizon)

    def create_batch(self, rng, device_ids, window_shape):
        n = len(device_ids)
        return {
            "fails": rng.random(n) < self.dropout_fraction,
            "fail_ticks": rng.integers(0, self.horizon, size=n),
        }

    def online_batch(self, states, tick):
        return ~states["fails"] | (tick < states["fail_ticks"])


class CorrelatedDrift(ConceptDrift):
    """Concept drift with a *shared* direction per device cohort.

    Independent per-device drift (the :class:`ConceptDrift` base) averages
    out across the fleet; correlated drift does not — every device in cohort
    ``device_id % n_cohorts`` moves along the same direction, so the fleet's
    windowed F1 collapses coherently instead of degrading gracefully.  The
    cohort directions are a pure function of ``seed`` (via a private
    :class:`numpy.random.SeedSequence`) and consume **zero** fleet draws, so
    device streams remain partition-independent.

    The drift math itself (the batch transform) is inherited from
    :class:`ConceptDrift`.
    """

    def __init__(
        self,
        drift_per_tick: float = 0.01,
        saturation_tick: int = 0,
        n_cohorts: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__(drift_per_tick=drift_per_tick, saturation_tick=saturation_tick)
        self.n_cohorts = int(n_cohorts)
        self.seed = int(seed)

    def create_batch(self, rng, device_ids, window_shape):
        cohorts = np.stack(
            [
                np.random.default_rng(
                    np.random.SeedSequence((self.seed & 0xFFFFFFFF, cohort))
                ).normal(size=window_shape)
                for cohort in range(self.n_cohorts)
            ]
        )
        return {
            "directions": _unit_directions(cohorts)[
                np.asarray(device_ids) % self.n_cohorts
            ]
        }


class AdversarialCamouflage(StreamMutator):
    """Adversarial amplitude camouflage: outliers shrunk toward the boundary.

    The standardised anomaly pool lives in a higher-RMS envelope than the
    normal pool, and reconstruction detectors separate the two on exactly
    that excess energy.  This mutator models an adversary (or a lossy sensor
    front-end) that compresses high-amplitude windows toward the normal
    envelope: any window whose RMS exceeds ``target_amplitude`` keeps only a
    ``1 - strength`` fraction of the excess.  It is label-free — ground
    truth is untouched, normal windows (mostly under the target) pass
    through — so detectors lose recall on the camouflaged anomalies, and a
    qualification contract can pin how much loss is tolerable.

    No RNG draws: the shrink factor is a pure function of the window.
    """

    def __init__(self, target_amplitude: float = 1.0, strength: float = 0.8) -> None:
        self.target_amplitude = float(target_amplitude)
        self.strength = float(strength)

    def _factor(self, window: np.ndarray) -> float:
        rms = float(np.sqrt(np.mean(np.square(window))))
        if rms <= self.target_amplitude or rms == 0.0:
            return 1.0
        excess = rms - self.target_amplitude
        return (self.target_amplitude + (1.0 - self.strength) * excess) / rms

    def transform_batch(self, windows, states, rows, tick, draws):
        for i in range(windows.shape[0]):
            factor = self._factor(windows[i])
            if factor != 1.0:
                windows[i] = windows[i] * factor
        return windows
