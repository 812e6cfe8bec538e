"""Stream mutators: controlled non-stationarity for device window streams.

A mutator perturbs one aspect of a fleet's stream.  Its hooks are consumed by
:meth:`~repro.fleet.devices.DeviceFleet.arrivals_columnar`, which evaluates a
whole tick at once:

* :meth:`StreamMutator.device_state` / :meth:`StreamMutator.device_state_for`
  — called once when a device is created, drawing any per-device parameters
  from the *device's own* RNG (so the perturbation is independent of how
  devices are partitioned across shards); :meth:`StreamMutator.stack_states`
  turns the per-device states into the columnar view the other hooks receive;
* :meth:`StreamMutator.online_batch` / :meth:`StreamMutator.anomaly_rate_batch`
  — pure functions of the device states and the tick (no RNG draws, so an
  offline device consumes exactly the same stream as an online one would
  have), evaluated over the whole fleet;
* :meth:`StreamMutator.transform_draw` — the per-window RNG draws of the
  transform, made from the device RNG at the window's position in the
  device's stream;
* :meth:`StreamMutator.transform_batch` — the window math, applied to the
  tick's stacked ``(n, *window_shape)`` batch given those draws.

The concrete mutators cover the scenarios the paper's fleet premise implies
but the offline replay could never exercise: gradual concept drift, bursty
fleet-wide anomaly episodes, device churn/dropout, per-device phase jitter,
and the sensor-level fault models used by fault injection (stuck-at sensors,
transient spikes, permanent sensor dropout).  Each batch transform is pinned
by test to the plain per-window NumPy expression it vectorises.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np


class StreamMutator:
    """Base class: a no-op perturbation of a device stream."""

    def device_state(self, rng: np.random.Generator, window_shape: tuple) -> Dict[str, Any]:
        """Per-device parameters, drawn from the device's own RNG at creation."""
        return {}

    def device_state_for(
        self, device_id: int, rng: np.random.Generator, window_shape: tuple
    ) -> Dict[str, Any]:
        """Per-device parameters with the device's identity in scope.

        Most mutators ignore the id and delegate to :meth:`device_state`;
        cohort-structured mutators (e.g. :class:`CorrelatedDrift`) use it to
        derive *shared* parameters without consuming device RNG draws, which
        keeps the streams partition-independent.
        """
        return self.device_state(rng, window_shape)

    def stack_states(self, states: Sequence[Dict[str, Any]]):
        """A columnar view of the per-device states (``None`` when not needed).

        Computed once per fleet and handed back to every
        :meth:`online_batch` / :meth:`anomaly_rate_batch` /
        :meth:`transform_batch` call, so batch hooks never re-stack per tick.
        """
        return None

    def online_batch(self, stacked, states: Sequence[Dict[str, Any]], tick: int) -> np.ndarray:
        """Which devices emit at ``tick``, as a ``(n_devices,)`` bool mask."""
        return np.ones(len(states), dtype=bool)

    def anomaly_rate_batch(
        self, base_rates: np.ndarray, stacked, states: Sequence[Dict[str, Any]], tick: int
    ) -> np.ndarray:
        """The effective per-device anomaly probabilities at ``tick``."""
        return base_rates

    def transform_draw(self, state: Dict[str, Any], rng: np.random.Generator):
        """The RNG values this mutator's transform needs for one window.

        Called once per emitted window, between the window's pool-index draw
        and its timestamp draw, so the draw order within a device's stream is
        fixed.  ``None`` means the transform draws nothing (the base class
        and every built-in except phase jitter and sensor spikes).
        """
        return None

    def transform_batch(
        self,
        windows: np.ndarray,
        stacked,
        rows: np.ndarray,
        tick: int,
        draws: Optional[List],
    ) -> np.ndarray:
        """The emitted view of one tick's sampled pool windows.

        ``windows`` is the ``(n, *window_shape)`` float batch (safe to modify
        in place — the caller owns it), ``rows`` maps each window to its
        device's position in the fleet, and ``draws`` carries the per-window
        :meth:`transform_draw` results in arrival order.  The base transform
        is the identity.
        """
        return windows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


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

    def device_state(self, rng: np.random.Generator, window_shape: tuple) -> Dict[str, Any]:
        direction = rng.normal(size=window_shape)
        norm = float(np.linalg.norm(direction))
        if norm > 0:
            direction = direction / norm
        return {"drift_direction": direction}

    def stack_states(self, states):
        return np.stack([state["drift_direction"] for state in states])

    def transform_batch(self, windows, stacked, rows, tick, draws):
        if self.saturation_tick > 0:
            tick = min(tick, self.saturation_tick)
        # Per window: w + (drift * tick) * direction, one elementwise add.
        windows += self.drift_per_tick * tick * stacked[rows]
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

    def anomaly_rate_batch(self, base_rates, stacked, states, tick):
        if self.in_burst(tick):
            return np.full(len(states), self.burst_anomaly_rate)
        return np.asarray(base_rates, dtype=float)


class DeviceChurn(StreamMutator):
    """Periodic device dropout: a fraction of the fleet goes dark and returns.

    At creation each device decides (from its own RNG) whether it churns and,
    if so, at which phase of the ``period`` its ``offline_ticks``-long outage
    falls.  Online-ness is then a pure function of the tick, so churn never
    perturbs the RNG stream the device uses for its windows.
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

    def device_state(self, rng: np.random.Generator, window_shape: tuple) -> Dict[str, Any]:
        churns = bool(rng.random() < self.churn_fraction)
        phase = int(rng.integers(0, self.period))
        return {"churns": churns, "churn_phase": phase}

    def stack_states(self, states):
        return {
            "churns": np.array([state["churns"] for state in states], dtype=bool),
            "phases": np.array([state["churn_phase"] for state in states], dtype=np.int64),
        }

    def online_batch(self, stacked, states, tick):
        return ~stacked["churns"] | (
            (tick + stacked["phases"]) % self.period >= self.offline_ticks
        )


class PhaseJitter(StreamMutator):
    """Per-device phase misalignment: windows arrive circularly shifted.

    Models devices whose windowing is not aligned with the training data
    (clock skew, late joiners): each device has a fixed base shift plus a
    small per-window draw, both bounded by ``max_shift`` timesteps.
    """

    def __init__(self, max_shift: int = 4) -> None:
        self.max_shift = int(max_shift)

    def device_state(self, rng: np.random.Generator, window_shape: tuple) -> Dict[str, Any]:
        base = int(rng.integers(-self.max_shift, self.max_shift + 1)) if self.max_shift else 0
        return {"base_shift": base}

    def stack_states(self, states):
        return np.array([state["base_shift"] for state in states], dtype=np.int64)

    def transform_draw(self, state, rng):
        if self.max_shift:
            return int(rng.integers(-1, 2))
        return None

    def transform_batch(self, windows, stacked, rows, tick, draws):
        shifts = stacked[rows]
        if self.max_shift:
            shifts = shifts + np.asarray(draws, dtype=np.int64)
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

    At creation each device decides (from its own RNG) whether its sensor is
    stuck and, if so, at which constant standardised value.  A stuck device
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

    def device_state(self, rng: np.random.Generator, window_shape: tuple) -> Dict[str, Any]:
        stuck = bool(rng.random() < self.stuck_fraction)
        value = float(rng.normal(0.0, self.stuck_scale))
        return {"stuck": stuck, "stuck_value": value}

    def stack_states(self, states):
        return {
            "stuck": np.array([state["stuck"] for state in states], dtype=bool),
            "values": np.array([state["stuck_value"] for state in states], dtype=float),
        }

    def transform_batch(self, windows, stacked, rows, tick, draws):
        mask = stacked["stuck"][rows]
        if mask.any():
            values = stacked["values"][rows[mask]]
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

    def device_state(self, rng: np.random.Generator, window_shape: tuple) -> Dict[str, Any]:
        return {"length": int(window_shape[0])}

    def transform_draw(self, state, rng):
        if rng.random() < self.spike_rate:
            return int(rng.integers(state["length"]))
        return None

    def transform_batch(self, windows, stacked, rows, tick, draws):
        spiked = np.fromiter(
            (draw is not None for draw in draws), dtype=bool, count=len(draws)
        )
        hit = np.flatnonzero(spiked)
        if hit.size:
            indices = np.fromiter(
                (draws[i] for i in hit), dtype=np.int64, count=hit.size
            )
            # Per spiked window: window[index] += magnitude (every channel
            # of that one timestep).
            windows[hit, indices] += self.spike_magnitude
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

    def device_state(self, rng: np.random.Generator, window_shape: tuple) -> Dict[str, Any]:
        fails = bool(rng.random() < self.dropout_fraction)
        fail_tick = int(rng.integers(0, self.horizon))
        return {"fails": fails, "fail_tick": fail_tick}

    def stack_states(self, states):
        return {
            "fails": np.array([state["fails"] for state in states], dtype=bool),
            "fail_ticks": np.array(
                [state["fail_tick"] for state in states], dtype=np.int64
            ),
        }

    def online_batch(self, stacked, states, tick):
        return ~stacked["fails"] | (tick < stacked["fail_ticks"])


class CorrelatedDrift(ConceptDrift):
    """Concept drift with a *shared* direction per device cohort.

    Independent per-device drift (the :class:`ConceptDrift` base) averages
    out across the fleet; correlated drift does not — every device in cohort
    ``device_id % n_cohorts`` moves along the same direction, so the fleet's
    windowed F1 collapses coherently instead of degrading gracefully.  The
    cohort directions are a pure function of ``seed`` (via a private
    :class:`numpy.random.SeedSequence`) and consume **zero** draws from the
    device RNGs, so device streams remain partition-independent and
    bit-identical to an uncorrelated run of the same seed.

    The drift math itself (state stacking, batch transform) is inherited
    from :class:`ConceptDrift`.
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
        self._directions: Dict[tuple, np.ndarray] = {}

    def _direction(self, cohort: int, window_shape: tuple) -> np.ndarray:
        key = (cohort, tuple(window_shape))
        direction = self._directions.get(key)
        if direction is None:
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed & 0xFFFFFFFF, cohort))
            )
            direction = rng.normal(size=window_shape)
            norm = float(np.linalg.norm(direction))
            if norm > 0:
                direction = direction / norm
            self._directions[key] = direction
        return direction

    def device_state_for(self, device_id, rng, window_shape):
        cohort = int(device_id) % self.n_cohorts
        return {"drift_direction": self._direction(cohort, window_shape)}

    def device_state(self, rng, window_shape):
        # Identity-free fallback (never used by the fleet, which calls
        # device_state_for): cohort 0's direction, still draw-free.
        return {"drift_direction": self._direction(0, window_shape)}


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

    No RNG draws: the shrink factor is a pure function of the window, so
    the per-device streams are unperturbed.
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

    def transform_batch(self, windows, stacked, rows, tick, draws):
        for i in range(windows.shape[0]):
            factor = self._factor(windows[i])
            if factor != 1.0:
                windows[i] = windows[i] * factor
        return windows
