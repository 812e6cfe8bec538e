"""The statistical fence around the arrival stream.

``fence(fleet)`` streams a whole fleet and measures it against what its spec
*states* — arrival rate, anomaly rate, uniform pool indices and timestamp
offsets, the creation distributions of every stacked mutator — returning one
row per statistic: ``(observed, expected, z)`` with ``z`` the distance from
the spec value in standard deviations of the spec's own distribution.  The
stream's definition may change (and ``tests/goldens/fleet/`` be re-recorded)
only between two commits that both keep every ``|z| <= Z_BOUND``; the rows of
the commit before and after PR 23 sit side by side in ``BENCH_23.json``.

Everything expected is re-derived here from the spec's plain fields, device by
device and tick by tick, never through the hooks under test.  The module
touches only what every commit has (``DeviceFleet.arrivals_columnar``, the
spec), so the same file measures both sides; ``states`` hands in the mutators'
per-device creation columns where a commit stores them differently.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

Z_BOUND = 4.0

#: Mutator kinds whose transform keeps a window next to the pool row it was
#: drawn from (so the row can be recovered by nearest neighbour).
_INDEX_PRESERVING = {
    "concept-drift", "anomaly-burst", "device-churn", "sensor-stuck",
    "sensor-spike", "sensor-dropout",
}

Row = Tuple[float, float, float]


def _z(observed: float, expected: float, sigma: float) -> Row:
    if sigma == 0.0:
        return (observed, expected, 0.0 if observed == expected else math.inf)
    return (observed, expected, (observed - expected) / sigma)


def _binomial(hits: int, n: int, p: float) -> Row:
    return _z(hits / max(n, 1), p, math.sqrt(p * (1.0 - p) / max(n, 1)))


def _support(values: np.ndarray, low: float, high: float) -> Row:
    """Number of values outside ``[low, high)``; any is a breach."""
    return _z(float(np.count_nonzero((values < low) | (values >= high))), 0.0, 0.0)


def _uniform_integers(values: np.ndarray, low: int, high: int) -> Row:
    """Mean of integers uniform on ``[low, high)``."""
    k = high - low
    sigma = math.sqrt((k * k - 1) / 12.0 / max(values.size, 1))
    return _z(float(values.mean()), (low + high - 1) / 2.0, sigma)


def _chi2(counts: np.ndarray) -> Row:
    """Pearson chi-square of ``counts`` against the uniform, as a z-score."""
    expected = counts.sum() / counts.size
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    dof = counts.size - 1
    return _z(chi2, float(dof), math.sqrt(2.0 * dof))


def class_columns(spec) -> Tuple[np.ndarray, np.ndarray]:
    """Per-device ``(arrival rate, anomaly rate)``, by the scalar class rule."""
    arrival = np.full(spec.n_devices, spec.arrival_rate)
    anomaly = np.full(spec.n_devices, spec.anomaly_rate)
    bounds = spec.class_boundaries()
    for device_id in range(spec.n_devices if spec.device_classes else 0):
        cls = next(c for bound, c in zip(bounds, spec.device_classes) if device_id < bound)
        if cls.arrival_rate is not None:
            arrival[device_id] = cls.arrival_rate
        if cls.anomaly_rate is not None:
            anomaly[device_id] = cls.anomaly_rate
    return arrival, anomaly


def fence(fleet, states: Optional[List[Optional[dict]]] = None) -> Dict[str, Row]:
    """Measure the whole stream of ``fleet`` (all devices) against its spec."""
    spec, pool = fleet.spec, fleet.pool
    states = fleet._states if states is None else states
    n_devices, ticks = spec.n_devices, spec.ticks
    kinds = [mutator.kind for mutator in spec.mutators]
    rows: Dict[str, Row] = {}

    # -- creation draws, mutator by mutator; the online mask they imply ---------
    online = np.ones((ticks, n_devices), dtype=bool)
    tick_column = np.arange(ticks)[:, None]
    drift = np.zeros((ticks, 1))
    directions = None
    stuck = np.zeros(n_devices, dtype=bool)
    for place, (mutator, columns) in enumerate(zip(spec.mutators, states)):
        tag = f"{place}.{mutator.kind}"
        if mutator.kind in ("concept-drift", "correlated-drift"):
            directions = columns["directions"].reshape(n_devices, -1)
            norms = np.sqrt(np.square(directions).sum(axis=1))
            rows[f"{tag}.unit_norm_violations"] = _support(norms, 1 - 1e-9, 1 + 1e-9)
            if mutator.kind == "concept-drift":
                # Components of a uniform unit vector are uncorrelated with
                # variance 1/d, so a device's component sum has variance 1.
                rows[f"{tag}.fleet_mean_direction"] = _z(
                    float(directions.sum() / n_devices), 0.0, 1 / math.sqrt(n_devices)
                )
            saturation = mutator.drift_saturation_tick
            drift = mutator.drift_per_tick * (
                np.minimum(tick_column, saturation) if saturation > 0 else tick_column
            )
        elif mutator.kind == "device-churn":
            churns, phases = columns["churns"], columns["phases"]
            rows[f"{tag}.churn_fraction"] = _binomial(
                int(churns.sum()), n_devices, mutator.churn_fraction
            )
            rows[f"{tag}.phase_support_violations"] = _support(
                phases, 0, mutator.churn_period
            )
            rows[f"{tag}.phase_mean"] = _uniform_integers(phases, 0, mutator.churn_period)
            online &= ~churns | (
                (tick_column + phases) % mutator.churn_period >= mutator.offline_ticks
            )
        elif mutator.kind == "phase-jitter":
            shifts = columns["base_shifts"]
            rows[f"{tag}.shift_support_violations"] = _support(
                shifts, -mutator.max_shift, mutator.max_shift + 1
            )
            rows[f"{tag}.shift_mean"] = _uniform_integers(
                shifts, -mutator.max_shift, mutator.max_shift + 1
            )
        elif mutator.kind == "sensor-stuck":
            stuck = columns["stuck"]
            rows[f"{tag}.stuck_fraction"] = _binomial(
                int(stuck.sum()), n_devices, mutator.stuck_fraction
            )
            rows[f"{tag}.stuck_value_mean"] = _z(
                float(columns["values"].mean()), 0.0,
                mutator.stuck_scale / math.sqrt(n_devices),
            )
        elif mutator.kind == "sensor-dropout":
            fails, fail_ticks = columns["fails"], columns["fail_ticks"]
            rows[f"{tag}.dropout_fraction"] = _binomial(
                int(fails.sum()), n_devices, mutator.dropout_fraction
            )
            rows[f"{tag}.fail_tick_range_violations"] = _support(
                fail_ticks, 0, mutator.dropout_horizon
            )
            rows[f"{tag}.fail_tick_mean"] = _uniform_integers(
                fail_ticks, 0, mutator.dropout_horizon
            )
            online &= ~fails | (tick_column < fail_ticks)

    # -- the stream ------------------------------------------------------------
    batches = [fleet.arrivals_columnar(tick) for tick in range(ticks)]
    device_ids = np.concatenate([batch.device_ids for batch in batches])
    labels = np.concatenate([batch.labels for batch in batches])
    tick_of = np.repeat(np.arange(ticks), [batch.n for batch in batches])
    offsets = np.concatenate([batch.timestamps for batch in batches]) - tick_of
    n = int(labels.size)

    rows["online_mismatches"] = _z(
        float(sum(batch.online != online[tick].sum() for tick, batch in enumerate(batches))),
        0.0, 0.0,
    )
    rows["offline_arrivals"] = _z(
        float(np.count_nonzero(~online[tick_of, device_ids])), 0.0, 0.0
    )

    arrival_rates, anomaly_rates = class_columns(spec)
    multipliers = np.array([spec.rate_multiplier(tick) for tick in range(ticks)])
    expected_arrivals = float((online * arrival_rates * multipliers[:, None]).sum())
    device_ticks = float(online.sum())
    rows["arrivals_per_online_device_tick"] = _z(
        n / device_ticks, expected_arrivals / device_ticks,
        math.sqrt(expected_arrivals) / device_ticks,
    )

    p = anomaly_rates[device_ids]
    for mutator in spec.mutators:
        if mutator.kind == "anomaly-burst":
            in_burst = tick_of % mutator.burst_period < mutator.burst_ticks
            p = np.where(in_burst, mutator.burst_anomaly_rate, p)
    if not pool.anomalous.shape[0]:
        p = np.zeros(n)
    rows["anomalous_fraction"] = _z(
        float(labels.mean()), float(p.mean()), math.sqrt(float((p * (1 - p)).sum())) / n
    )

    rows["timestamp_offset_support_violations"] = _support(offsets, 0.0, 1.0)
    rows["timestamp_offset_mean"] = _z(
        float(offsets.mean()), 0.5, math.sqrt(1 / 12.0 / n)
    )
    rows["timestamp_offset_chi2"] = _chi2(
        np.bincount(np.minimum((offsets * 10).astype(int), 9), minlength=10)
    )

    # -- pool indices (and spikes), where a window still names its pool row ----------
    if set(kinds) <= _INDEX_PRESERVING and not any(
        cls.amplitude_scale != 1.0 or cls.amplitude_offset != 0.0
        for cls in spec.device_classes
    ):
        windows = np.concatenate([batch.windows for batch in batches]).reshape(n, -1)
        if directions is not None:
            windows = windows - drift[tick_of] * directions[device_ids]
        readable = ~stuck[device_ids]
        counts = []
        residuals = []
        for label, rows_of_pool in ((0, pool.normal), (1, pool.anomalous)):
            chosen = readable & (labels == label)
            if not chosen.any():
                continue
            flat = rows_of_pool.reshape(rows_of_pool.shape[0], -1)
            emitted = windows[chosen]
            distance = (
                np.square(emitted).sum(axis=1)[:, None]
                - 2.0 * emitted @ flat.T
                + np.square(flat).sum(axis=1)[None, :]
            )
            nearest = distance.argmin(axis=1)
            counts.append(np.bincount(nearest, minlength=flat.shape[0]))
            residuals.append(np.abs(emitted - flat[nearest]).max(axis=1))
        # One chi-square per pool, added (independent, so the dofs add too).
        chi2 = sum(_chi2(c)[0] for c in counts)
        dof = sum(c.size - 1 for c in counts)
        rows["pool_index_chi2"] = _z(chi2, float(dof), math.sqrt(2.0 * dof))
        residual = np.concatenate(residuals)
        spikes = [m for m in spec.mutators if m.kind == "sensor-spike"]
        if spikes:
            (spike,) = spikes
            rows["spike_rate"] = _binomial(
                int(np.count_nonzero(residual > spike.spike_magnitude / 2)),
                residual.size, spike.spike_rate,
            )
        else:
            rows["windows_off_their_pool_row"] = _z(
                float(np.count_nonzero(residual > 1e-9)), 0.0, 0.0
            )
    return rows
