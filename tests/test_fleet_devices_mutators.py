"""Tests for the workload generators: device streams and stream mutators."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.fleet import devices as devices_module
from repro.fleet import mutators as mutators_module
from repro.fleet import stream_cache
from repro.fleet.devices import BLOCK_DEVICES, DeviceFleet, WindowPool
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
    StreamMutator,
)
from repro.fleet.spec import DeviceClassSpec, FleetSpec, MutatorSpec

from fleet_fence import fence


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(0)
    normal = rng.normal(size=(12, 21))
    anomalous = rng.normal(loc=3.0, size=(5, 21))
    return WindowPool(normal=normal, anomalous=anomalous)


def _stream(fleet):
    """The fleet's whole stream, one batch per tick."""
    return [fleet.arrivals_columnar(tick) for tick in range(fleet.spec.ticks)]


def _stream_payload(fleet):
    """A whole stream as flat arrays (the ``.npz`` golden layout)."""
    batches = _stream(fleet)
    return {
        "windows": np.concatenate([batch.windows for batch in batches]),
        "labels": np.concatenate([batch.labels for batch in batches]),
        "device_ids": np.concatenate([batch.device_ids for batch in batches]),
        "timestamps": np.concatenate([batch.timestamps for batch in batches]),
        "counts": np.array([batch.n for batch in batches], dtype=np.int64),
        "online": np.array([batch.online for batch in batches], dtype=np.int64),
    }


FIELDS = ("windows", "labels", "device_ids", "timestamps")


def _assert_batches_equal(a, b):
    assert a.online == b.online
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def _assert_rows_of(whole, part, device_ids):
    """``part`` is exactly the rows ``whole`` emits for ``device_ids``."""
    kept = np.isin(whole.device_ids, device_ids)
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(whole, field)[kept], getattr(part, field))


class TestWindowPool:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="share one shape"):
            WindowPool(normal=np.zeros((3, 4)), anomalous=np.zeros((2, 5)))

    def test_from_labeled_splits_by_label(self, pool):
        from repro.data.datasets import LabeledWindows

        windows = np.concatenate([pool.normal, pool.anomalous])
        labels = np.array([0] * 12 + [1] * 5)
        rebuilt = WindowPool.from_labeled(LabeledWindows(windows=windows, labels=labels))
        np.testing.assert_array_equal(rebuilt.normal, pool.normal)
        np.testing.assert_array_equal(rebuilt.anomalous, pool.anomalous)


class TestDeviceDeterminism:
    def test_same_seed_same_stream(self, pool):
        spec = FleetSpec(n_devices=4, ticks=6, arrival_rate=1.0, seed=3)
        a = DeviceFleet(spec, pool, device_ids=[2])
        b = DeviceFleet(spec, pool, device_ids=[2])
        streams = list(zip(_stream(a), _stream(b)))
        assert sum(x.n for x, _ in streams) > 0
        for x, y in streams:
            _assert_batches_equal(x, y)

    def test_stream_independent_of_other_devices(self, pool):
        """A device's stream does not depend on which other devices the
        fleet holds."""
        spec = FleetSpec(n_devices=8, ticks=4, arrival_rate=1.0, seed=3)
        whole = DeviceFleet(spec, pool)
        lone = DeviceFleet(spec, pool, device_ids=[5])
        for full, alone in zip(_stream(whole), _stream(lone)):
            twin = full.device_ids == 5
            np.testing.assert_array_equal(full.windows[twin], alone.windows)
            np.testing.assert_array_equal(full.labels[twin], alone.labels)
            np.testing.assert_array_equal(full.timestamps[twin], alone.timestamps)

    def test_different_devices_differ(self, pool):
        spec = FleetSpec(n_devices=4, ticks=2, arrival_rate=3.0, seed=3)
        batch = DeviceFleet(spec, pool).arrivals_columnar(0)
        streams = {
            tuple(batch.timestamps[batch.device_ids == device_id])
            for device_id in range(4)
        }
        assert len(streams) > 1

    def test_draw_generator_is_a_philox_at_the_named_counter(self, pool):
        """The fleet repositions one generator per draw; the reference builds
        a Philox at (key, counter) from scratch — also after a draw left the
        output buffer half consumed."""
        spec = FleetSpec(n_devices=4, ticks=2, seed=-3)
        fleet = DeviceFleet(spec, pool, master_seed=11)
        mask = 0xFFFFFFFFFFFFFFFF
        for block, tick, purpose in [(0, -1, 4), (0, 0, 0), (2, 17, 3), (0, 0, 1)]:
            reference = np.random.Generator(
                np.random.Philox(
                    key=np.array((11, -3 & mask), dtype=np.uint64),
                    counter=(0, tick + 1, purpose, block),
                )
            )
            subject = fleet._rng(block, tick, purpose)
            np.testing.assert_array_equal(
                subject.integers(0, 1 << 30, size=5, dtype=np.int32),
                reference.integers(0, 1 << 30, size=5, dtype=np.int32),
            )
            np.testing.assert_array_equal(subject.random(3), reference.random(3))
        a = fleet._rng(0, 0, 1).random(4)
        for other in [(1, 0, 1), (0, 1, 1), (0, 0, 2)]:
            assert not np.array_equal(a, fleet._rng(*other).random(4))

    @pytest.mark.parametrize("ids", [[], [3, 2], [1, 1], [-1, 2], [2, 4]])
    def test_device_ids_must_be_increasing_ids_of_the_fleet(self, pool, ids):
        spec = FleetSpec(n_devices=4, ticks=2)
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            DeviceFleet(spec, pool, device_ids=ids)


class TestArrivals:
    def test_arrivals_are_timestamped_within_tick(self, pool):
        spec = FleetSpec(n_devices=6, ticks=5, arrival_rate=2.0, seed=1)
        for tick, batch in enumerate(_stream(DeviceFleet(spec, pool))):
            assert batch.online == 6
            assert batch.n > 0
            assert np.all((tick <= batch.timestamps) & (batch.timestamps < tick + 1))
            assert batch.windows.shape == (batch.n, *pool.window_shape)
            # Arrivals come in fleet (device-id) order.
            assert np.all(np.diff(batch.device_ids) >= 0)

    def test_labels_follow_anomaly_pool(self, pool):
        spec = FleetSpec(n_devices=20, ticks=10, arrival_rate=2.0, anomaly_rate=1.0, seed=1)
        batch = DeviceFleet(spec, pool).arrivals_columnar(0)
        assert batch.n and np.all(batch.labels == 1)

    def test_empty_anomaly_pool_yields_normal_labels(self):
        lonely = WindowPool(
            normal=np.random.default_rng(0).normal(size=(6, 10)),
            anomalous=np.zeros((0, 10)),
        )
        spec = FleetSpec(n_devices=5, ticks=3, arrival_rate=2.0, anomaly_rate=1.0, seed=1)
        batch = DeviceFleet(spec, lonely).arrivals_columnar(0)
        assert batch.n and np.all(batch.labels == 0)


class TestConceptDrift:
    def test_distance_from_pool_grows_with_ticks(self, pool):
        spec = FleetSpec(
            n_devices=1,
            ticks=30,
            arrival_rate=4.0,
            anomaly_rate=0.0,
            seed=5,
            mutators=(MutatorSpec(kind="concept-drift", drift_per_tick=0.2),),
        )
        batches = _stream(DeviceFleet(spec, pool))

        def mean_distance(batch):
            assert batch.n
            return np.mean(
                [np.min(np.linalg.norm(pool.normal - w, axis=1)) for w in batch.windows]
            )

        # 29 ticks x 0.2/tick along a unit direction
        assert mean_distance(batches[29]) > mean_distance(batches[0]) + 1.0

    def test_drift_preserves_labels(self, pool):
        spec = FleetSpec(
            n_devices=1,
            ticks=5,
            arrival_rate=4.0,
            anomaly_rate=0.0,
            seed=5,
            mutators=(MutatorSpec(kind="concept-drift", drift_per_tick=0.5),),
        )
        assert all(np.all(b.labels == 0) for b in _stream(DeviceFleet(spec, pool)))


class TestAnomalyBurst:
    def test_burst_window_arithmetic(self):
        burst = AnomalyBurst(period=10, burst_ticks=3, burst_anomaly_rate=0.8)
        assert [burst.in_burst(t) for t in range(10)] == [True] * 3 + [False] * 7
        assert burst.in_burst(10)  # next period

    def test_burst_raises_anomaly_fraction(self, pool):
        spec = FleetSpec(
            n_devices=40,
            ticks=8,
            arrival_rate=2.0,
            anomaly_rate=0.0,
            seed=2,
            mutators=(
                MutatorSpec(
                    kind="anomaly-burst",
                    burst_period=8,
                    burst_ticks=4,
                    burst_anomaly_rate=1.0,
                ),
            ),
        )
        batches = _stream(DeviceFleet(spec, pool))
        burst_batch, calm_batch = batches[0], batches[5]
        assert burst_batch.n and np.all(burst_batch.labels == 1)
        assert calm_batch.n and np.all(calm_batch.labels == 0)


class TestDeviceChurn:
    def test_churned_devices_cycle_offline(self, pool):
        spec = FleetSpec(
            n_devices=30,
            ticks=16,
            arrival_rate=1.0,
            seed=4,
            mutators=(
                MutatorSpec(
                    kind="device-churn", churn_fraction=1.0, offline_ticks=4, churn_period=8
                ),
            ),
        )
        fleet = DeviceFleet(spec, pool)
        assert min(batch.online for batch in _stream(fleet)) < 30  # someone is offline
        (churn,) = fleet.mutators
        (states,) = fleet._states
        online = np.stack([churn.online_batch(states, tick) for tick in range(8)])
        # Every device goes dark and returns within one period.
        assert np.all(online.any(axis=0)) and not np.any(online.all(axis=0))

    def test_zero_fraction_never_drops(self, pool):
        churn = DeviceChurn(churn_fraction=0.0)
        states = churn.create_batch(
            np.random.default_rng(0), np.arange(50), pool.window_shape
        )
        assert all(churn.online_batch(states, tick).all() for tick in range(100))

    def test_offline_devices_emit_nothing(self, pool):
        spec = FleetSpec(
            n_devices=1,
            ticks=8,
            arrival_rate=5.0,
            seed=11,
            mutators=(
                MutatorSpec(
                    kind="device-churn", churn_fraction=1.0, offline_ticks=8, churn_period=8
                ),
            ),
        )
        for batch in _stream(DeviceFleet(spec, pool)):
            assert (batch.n, batch.online) == (0, 0)


class TestPhaseJitter:
    def test_windows_are_rolled_pool_windows(self, pool):
        spec = FleetSpec(
            n_devices=1,
            ticks=4,
            arrival_rate=4.0,
            anomaly_rate=0.0,
            seed=6,
            mutators=(MutatorSpec(kind="phase-jitter", max_shift=4),),
        )
        batch = DeviceFleet(spec, pool).arrivals_columnar(0)
        assert batch.n
        for window in batch.windows:
            rolled_back = [np.roll(window, -shift, axis=0) for shift in range(-5, 6)]
            assert any(
                any(np.allclose(candidate, w) for w in pool.normal)
                for candidate in rolled_back
            )

    def test_zero_shift_is_identity(self, pool):
        spec = FleetSpec(
            n_devices=1,
            ticks=1,
            arrival_rate=4.0,
            anomaly_rate=0.0,
            seed=6,
            mutators=(MutatorSpec(kind="phase-jitter", max_shift=0),),
        )
        batch = DeviceFleet(spec, pool).arrivals_columnar(0)
        assert batch.n
        for window in batch.windows:
            assert any(np.array_equal(window, w) for w in pool.normal)


class TestTransformBatchReference:
    """Each batch transform against the per-window NumPy expression it vectorises.

    Multichannel ``(timesteps, channels)`` windows, three devices, windows
    mapped to devices through ``rows`` — the batch hook must equal applying
    the plain expression to every window on its own, bit for bit.
    """

    SHAPE = (7, 3)
    ROWS = np.array([0, 2, 2, 1, 0, 1, 2, 0])

    @pytest.fixture()
    def windows(self):
        return np.random.default_rng(8).normal(scale=2.0, size=(self.ROWS.size, *self.SHAPE))

    def _check(self, mutator, windows, reference, tick=5, draws=None, states=None):
        if states is None:
            states = mutator.create_batch(
                np.random.default_rng(1), np.arange(3), self.SHAPE
            )
        # The reference sees one device's state: row ``row`` of every column.
        expected = np.stack(
            [
                reference(w, {name: column[row] for name, column in (states or {}).items()}, i)
                for i, (w, row) in enumerate(zip(windows, self.ROWS))
            ]
        )
        observed = mutator.transform_batch(windows.copy(), states, self.ROWS, tick, draws)
        np.testing.assert_array_equal(observed, expected)
        assert not np.array_equal(observed, windows)  # the transform did something

    @pytest.mark.parametrize("saturation_tick", [0, 3])
    def test_concept_drift_adds_scaled_direction(self, windows, saturation_tick):
        drift = ConceptDrift(drift_per_tick=0.05, saturation_tick=saturation_tick)
        tick = min(5, saturation_tick) if saturation_tick else 5
        self._check(
            drift, windows, lambda w, state, i: w + 0.05 * tick * state["directions"]
        )

    def test_phase_jitter_rolls_along_time(self, windows):
        jitter = PhaseJitter(max_shift=4)
        draws = np.array([1, -1, 0, 1, 0, -1, 1, 0])
        self._check(
            jitter,
            windows,
            lambda w, state, i: np.roll(w, state["base_shifts"] + draws[i], axis=0),
            draws=draws,
        )

    def test_sensor_stuck_fills_a_constant(self, windows):
        states = {
            "stuck": np.array([True, False, True]),
            "values": np.array([0.75, 9.0, -1.25]),
        }
        self._check(
            SensorStuck(),
            windows,
            lambda w, state, i: (
                np.full(w.shape, state["values"]) if state["stuck"] else w
            ),
            states=states,
        )

    def test_sensor_spike_adds_to_one_timestep(self, windows):
        spike = SensorSpike(spike_rate=0.5, spike_magnitude=6.0)
        draws = np.array([-1, 2, 6, -1, 0, -1, 2, -1])

        def reference(w, state, i):
            w = w.copy()
            if draws[i] >= 0:
                w[draws[i]] += 6.0
            return w

        self._check(spike, windows, reference, draws=draws)

    def test_camouflage_shrinks_excess_rms(self, windows):
        camouflage = AdversarialCamouflage(target_amplitude=2.0, strength=0.7)

        def reference(w, state, i):
            rms = float(np.sqrt(np.mean(np.square(w))))
            if rms <= 2.0:
                return w
            return w * ((2.0 + (1.0 - 0.7) * (rms - 2.0)) / rms)

        rms = np.sqrt(np.mean(np.square(windows), axis=(1, 2)))
        assert np.any(rms > 2.0) and np.any(rms <= 2.0)  # both branches taken
        self._check(camouflage, windows, reference)


class TestDrawHookReference:
    """Each creation / per-window draw hook against the plain per-device NumPy
    expression it vectorises: the reference draws the same values from a twin
    generator and applies the expression to one device (one window) at a time.
    """

    SHAPE = (7, 3)
    IDS = np.arange(40, 52)
    N = IDS.size

    @staticmethod
    def _twins():
        return np.random.default_rng(21), np.random.default_rng(21)

    def _created(self, mutator):
        subject, reference = self._twins()
        return mutator.create_batch(subject, self.IDS, self.SHAPE), reference

    def test_concept_drift_directions_are_normalised_normals(self):
        states, reference = self._created(ConceptDrift())
        normals = reference.normal(size=(self.N, *self.SHAPE))
        expected = np.stack([d / np.sqrt(np.sum(np.square(d))) for d in normals])
        # One division per element on both sides; only the norm's summation
        # order may differ, by an ulp of float64.
        np.testing.assert_allclose(states["directions"], expected, rtol=4e-16, atol=0)
        norms = np.sqrt(np.square(states["directions"]).sum(axis=(1, 2)))
        np.testing.assert_allclose(norms, 1.0, rtol=1e-15)

    def test_correlated_drift_shares_one_seeded_direction_per_cohort(self):
        mutator = CorrelatedDrift(n_cohorts=3, seed=5)
        states, reference = self._created(mutator)

        def direction(device_id):
            rng = np.random.default_rng(np.random.SeedSequence((5, device_id % 3)))
            d = rng.normal(size=self.SHAPE)
            return d / np.sqrt(np.sum(np.square(d)))

        expected = np.stack([direction(int(device_id)) for device_id in self.IDS])
        np.testing.assert_allclose(states["directions"], expected, rtol=4e-16, atol=0)
        # ... and consumes none of the fleet's draws.
        np.testing.assert_array_equal(
            reference.random(3), np.random.default_rng(21).random(3)
        )

    def test_churn_draws_a_flag_and_a_phase(self):
        states, reference = self._created(DeviceChurn(churn_fraction=0.4, period=9))
        uniforms = reference.random(self.N)
        phases = reference.integers(0, 9, size=self.N)
        assert states["churns"].tolist() == [bool(u < 0.4) for u in uniforms]
        assert states["phases"].tolist() == [int(phase) for phase in phases]

    def test_phase_jitter_draws_a_base_shift_and_a_window_shift(self):
        jitter = PhaseJitter(max_shift=4)
        states, reference = self._created(jitter)
        np.testing.assert_array_equal(
            states["base_shifts"], reference.integers(-4, 5, size=self.N)
        )
        subject, reference = self._twins()
        np.testing.assert_array_equal(
            jitter.draw_batch(subject, 30, self.SHAPE), reference.integers(-1, 2, size=30)
        )
        still = PhaseJitter(max_shift=0)
        assert not still.create_batch(subject, self.IDS, self.SHAPE)["base_shifts"].any()
        assert still.draw_batch(subject, 30, self.SHAPE) is None

    def test_sensor_stuck_draws_a_flag_and_a_value(self):
        states, reference = self._created(SensorStuck(stuck_fraction=0.3, stuck_scale=2.0))
        uniforms = reference.random(self.N)
        values = reference.normal(0.0, 2.0, size=self.N)
        assert states["stuck"].tolist() == [bool(u < 0.3) for u in uniforms]
        np.testing.assert_array_equal(states["values"], values)

    def test_sensor_dropout_draws_a_flag_and_a_fail_tick(self):
        states, reference = self._created(SensorDropout(dropout_fraction=0.3, horizon=12))
        uniforms = reference.random(self.N)
        fail_ticks = reference.integers(0, 12, size=self.N)
        assert states["fails"].tolist() == [bool(u < 0.3) for u in uniforms]
        assert states["fail_ticks"].tolist() == [int(tick) for tick in fail_ticks]

    def test_sensor_spike_draws_a_timestep_or_none(self):
        spike = SensorSpike(spike_rate=0.4)
        subject, reference = self._twins()
        draws = spike.draw_batch(subject, 50, self.SHAPE)
        uniforms = reference.random(50)
        timesteps = reference.integers(self.SHAPE[0], size=50)
        expected = [int(t) if u < 0.4 else -1 for u, t in zip(uniforms, timesteps)]
        assert draws.tolist() == expected
        assert -1 in expected and max(expected) >= 0  # both branches taken

    def test_class_columns_follow_the_scalar_class_rule(self):
        from fleet_fence import class_columns

        spec = FleetSpec(
            n_devices=37,
            arrival_rate=0.7,
            anomaly_rate=0.05,
            device_classes=(
                DeviceClassSpec(name="a", weight=1.0, arrival_rate=2.0),
                DeviceClassSpec(name="b", weight=2.5, anomaly_rate=0.4,
                                amplitude_scale=1.5, amplitude_offset=-0.25),
                DeviceClassSpec(name="c", weight=0.7),
            ),
        )
        ids = np.arange(37)
        arrival, anomaly, scales, offsets = spec.class_columns(ids)
        expected_arrival, expected_anomaly = class_columns(spec)
        np.testing.assert_array_equal(arrival, expected_arrival)
        np.testing.assert_array_equal(anomaly, expected_anomaly)
        low, high = spec.class_boundaries()[:2]
        in_b = (ids >= low) & (ids < high)
        np.testing.assert_array_equal(scales, np.where(in_b, 1.5, 1.0))
        np.testing.assert_array_equal(offsets, np.where(in_b, -0.25, 0.0))
        for column, value in zip(spec.class_columns([35, 2]), (0.7, 0.05, 1.0, 0.0)):
            assert column[0] == value  # any id order, any subset


MUTATOR_SETS = {
    "plain": (),
    "drift": (MutatorSpec(kind="concept-drift", drift_per_tick=0.05,
                          drift_saturation_tick=3),),
    "burst": (MutatorSpec(kind="anomaly-burst", burst_period=4, burst_ticks=2),),
    "churn": (MutatorSpec(kind="device-churn", churn_fraction=0.5,
                          offline_ticks=3, churn_period=5),),
    "jitter": (MutatorSpec(kind="phase-jitter", max_shift=5),),
    "all": (
        MutatorSpec(kind="concept-drift", drift_per_tick=0.05),
        MutatorSpec(kind="device-churn"),
        MutatorSpec(kind="phase-jitter", max_shift=3),
        MutatorSpec(kind="anomaly-burst"),
    ),
}


def _set_spec(mutators, n_devices=24, ticks=5):
    return FleetSpec(
        n_devices=n_devices, ticks=ticks, arrival_rate=1.2, anomaly_rate=0.2, seed=3,
        mutators=mutators,
    )


class TestColumnarArrivals:
    """Arrival streams are pinned to recorded goldens (re-recorded once, by
    PR 23, inside the statistical fence below)."""

    @pytest.mark.parametrize("name", sorted(MUTATOR_SETS))
    def test_stream_matches_golden(self, pool, golden, name):
        fleet = DeviceFleet(_set_spec(MUTATOR_SETS[name]), pool, master_seed=7)
        golden(f"fleet/arrivals-{name}.npz", _stream_payload(fleet))

    def test_shard_subset_matches_golden(self, pool, golden):
        fleet = DeviceFleet(
            _set_spec(MUTATOR_SETS["all"]), pool, master_seed=7, device_ids=[2, 9, 17],
        )
        golden("fleet/arrivals-all-subset.npz", _stream_payload(fleet))

    def test_custom_mutator_overriding_only_transform_batch(self, pool, monkeypatch):
        class Shifter(StreamMutator):
            def transform_batch(self, windows, stacked, rows, tick, draws):
                windows += 1.0
                return windows

        spec = _set_spec(())
        plain = _stream(DeviceFleet(spec, pool, master_seed=7))
        monkeypatch.setattr(FleetSpec, "build_mutators", lambda self: (Shifter(),))
        shifted = _stream(DeviceFleet(spec, pool, master_seed=7))
        for a, b in zip(plain, shifted):
            np.testing.assert_array_equal(b.windows, a.windows + 1.0)
            np.testing.assert_array_equal(b.timestamps, a.timestamps)


class TestStreamIsAPureFunction:
    """What the counter-based stream gives by construction: a tick is a
    function of (seeds, device block, tick) — not of the ticks drawn before
    it, of the devices sharing the fleet, or of anything left in the process."""

    TICKS = 20

    @pytest.mark.parametrize("name", sorted(MUTATOR_SETS))
    def test_order_free(self, pool, name):
        spec = _set_spec(MUTATOR_SETS[name], ticks=self.TICKS)
        fresh = DeviceFleet(spec, pool, master_seed=7).arrivals_columnar(17)
        assert fresh.n
        forward = DeviceFleet(spec, pool, master_seed=7)
        for tick in range(17):
            forward.arrivals_columnar(tick)
        _assert_batches_equal(forward.arrivals_columnar(17), fresh)
        backward = DeviceFleet(spec, pool, master_seed=7)
        reverse = {
            tick: backward.arrivals_columnar(tick)
            for tick in reversed(range(self.TICKS))
        }
        _assert_batches_equal(reverse[17], fresh)
        _assert_batches_equal(backward.arrivals_columnar(17), fresh)  # ... and again

    @pytest.mark.parametrize("name", sorted(MUTATOR_SETS))
    def test_partition_free(self, pool, name):
        """2500 devices are three blocks; every subset reproduces exactly the
        rows the whole fleet emits for its ids."""
        n_devices = 2500
        assert 2 * BLOCK_DEVICES < n_devices < 3 * BLOCK_DEVICES
        spec = _set_spec(MUTATOR_SETS[name], n_devices=n_devices, ticks=3)
        whole = _stream(DeviceFleet(spec, pool, master_seed=7))
        subsets = [
            np.array([2, 9, 17]),
            np.arange(BLOCK_DEVICES - 3, BLOCK_DEVICES + 4),  # straddles an edge
            np.array([5, BLOCK_DEVICES, 2 * BLOCK_DEVICES + 1, n_devices - 1]),
        ]
        for n_shards in (1, 2, 4, 8):
            subsets.extend(np.array_split(np.arange(n_devices), n_shards))
        for ids in subsets:
            part = DeviceFleet(spec, pool, master_seed=7, device_ids=ids.tolist())
            assert len(part) == ids.size
            for tick, full in enumerate(whole):
                batch = part.arrivals_columnar(tick)
                _assert_rows_of(full, batch, ids)
                assert batch.online <= ids.size
        # Shard online counts add up to the fleet's.
        shards = [
            _stream(DeviceFleet(spec, pool, master_seed=7, device_ids=ids.tolist()))
            for ids in np.array_split(np.arange(n_devices), 4)
        ]
        for tick, full in enumerate(whole):
            assert sum(shard[tick].online for shard in shards) == full.online

    def test_state_free(self, pool):
        """Two fleets share no array; a run changes no module global."""

        def snapshot():
            return {
                module.__name__: {
                    name: (id(value), repr(value)[:200])
                    for name, value in vars(module).items()
                    if not name.startswith("__")
                }
                for module in (devices_module, mutators_module, stream_cache)
            }

        before = snapshot()
        spec = _set_spec(MUTATOR_SETS["all"])
        first = DeviceFleet(spec, pool, master_seed=7)
        second = DeviceFleet(spec, pool, master_seed=7)
        streams = (_stream(first), _stream(second))
        assert stream_cache.cache_stats() == (0, 0)
        stream_cache.clear()
        assert snapshot() == before

        def arrays(fleet, batches):
            yield from (column for states in fleet._states if states
                        for column in states.values())
            yield from (block.position for block in fleet._blocks)
            yield from (block.arrival_rates for block in fleet._blocks)
            yield fleet._ids
            yield from (getattr(batch, field) for batch in batches for field in FIELDS)

        for a, b in zip(arrays(first, streams[0]), arrays(second, streams[1])):
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, b)
        # Batches of one fleet own their arrays too.
        for a, b in zip(streams[0], _stream(first)):
            _assert_batches_equal(a, b)
            assert not any(
                np.shares_memory(getattr(a, field), getattr(b, field)) for field in FIELDS
            )


class TestMutatorComposition:
    """Property tests over random mutator pairs stacked on one device class.

    Stacking any two registered mutators must (a) reproduce the stream
    recorded for that pair, (b) keep every device's stream a pure function
    of its device id — a fleet holding only a subset of the devices emits
    exactly the whole fleet's rows for them — and (c) leave everything the
    first mutator alone would have drawn where it was.
    """

    CATALOG = (
        MutatorSpec(kind="concept-drift", drift_per_tick=0.05),
        MutatorSpec(kind="anomaly-burst", burst_period=4, burst_ticks=2),
        MutatorSpec(kind="device-churn", churn_fraction=0.3, offline_ticks=2,
                    churn_period=4),
        MutatorSpec(kind="phase-jitter", max_shift=4),
        MutatorSpec(kind="sensor-stuck", stuck_fraction=0.3),
        MutatorSpec(kind="sensor-spike", spike_rate=0.2, spike_magnitude=5.0),
        MutatorSpec(kind="sensor-dropout", dropout_fraction=0.3,
                    dropout_horizon=8),
        MutatorSpec(kind="correlated-drift", drift_per_tick=0.05,
                    drift_cohorts=3),
        MutatorSpec(kind="camouflage", camouflage_target=1.0,
                    camouflage_strength=0.7),
    )

    def _pair(self, draw):
        rng = np.random.default_rng(draw)
        first, second = rng.choice(len(self.CATALOG), size=2, replace=False)
        return (self.CATALOG[int(first)], self.CATALOG[int(second)])

    def _spec(self, mutators):
        return FleetSpec(
            n_devices=16, ticks=6, arrival_rate=1.0, anomaly_rate=0.2, seed=5,
            device_classes=(
                DeviceClassSpec(name="only", weight=1.0, arrival_rate=1.0),
            ),
            mutators=mutators,
        )

    @pytest.mark.parametrize("draw", range(10))
    def test_random_pairs_match_golden(self, pool, golden, draw):
        fleet = DeviceFleet(self._spec(self._pair(draw)), pool, master_seed=11)
        golden(f"fleet/arrivals-pair-{draw}.npz", _stream_payload(fleet))

    @pytest.mark.parametrize("draw", range(10))
    def test_random_pairs_are_partition_and_composition_free(self, pool, draw):
        pair = self._pair(1000 + draw)
        spec = self._spec(pair)
        subset_ids = [3, 7, 12]
        both_fleet = DeviceFleet(spec, pool, master_seed=11)
        both = self._spied_stream(both_fleet)
        subset = _stream(DeviceFleet(spec, pool, master_seed=11, device_ids=subset_ids))
        for (whole, _, _), part in zip(both, subset):
            _assert_rows_of(whole, part, subset_ids)

        # Composition: the same fleet with the first mutator only.
        alone_fleet = DeviceFleet(self._spec(pair[:1]), pool, master_seed=11)
        alone = self._spied_stream(alone_fleet)
        first_states, both_states = alone_fleet._states[0], both_fleet._states[0]
        for name in first_states or {}:
            np.testing.assert_array_equal(both_states[name], first_states[name])
        second = both_fleet.mutators[1]
        drops_devices = second.online_batch(both_fleet._states[1], 0) is not None
        for (a, a_raw, a_draws), (b, b_raw, b_draws) in zip(alone, both):
            # Counts and timestamps: the pair emits the first mutator's rows,
            # minus the devices the second took offline.
            kept = np.isin(a.timestamps, b.timestamps)
            assert drops_devices or kept.all()
            np.testing.assert_array_equal(a.device_ids[kept], b.device_ids)
            np.testing.assert_array_equal(a.timestamps[kept], b.timestamps)
            # The first mutator's own window draws.
            assert (a_draws is None) == (b_draws is None)
            if a_draws is not None:
                np.testing.assert_array_equal(a_draws[kept], b_draws)
            if pair[1].kind != "anomaly-burst":
                # Anomaly flags and pool indices: the windows as gathered,
                # before any transform.
                np.testing.assert_array_equal(a.labels[kept], b.labels)
                np.testing.assert_array_equal(a_raw[kept], b_raw)

    @staticmethod
    def _spied_stream(fleet):
        """Per tick ``(batch, windows as gathered from the pool, the first
        mutator's draws)`` — its ``transform_batch`` runs first, so it sees
        the untransformed gather."""
        first = fleet.mutators[0]
        original = first.transform_batch
        seen = []

        def spy(windows, states, rows, tick, draws):
            seen.append((windows.copy(), draws))
            return original(windows, states, rows, tick, draws)

        first.transform_batch = spy
        stream = []
        for tick in range(fleet.spec.ticks):
            batch = fleet.arrivals_columnar(tick)
            raw, draws = seen.pop() if seen else (batch.windows, None)
            stream.append((batch, raw, draws))
        return stream


class TestStatisticalFence:
    """The fence that stood in for bit-identity when PR 23 re-drew every
    stream: each statistic within ``Z_BOUND`` standard deviations of the value
    the *spec* states (``BENCH_23.json`` has the same table for the commit
    before)."""

    @staticmethod
    def _assert_inside(rows):
        from fleet_fence import Z_BOUND

        assert len(rows) >= 8
        breaches = {name: row for name, row in rows.items() if not abs(row[2]) <= Z_BOUND}
        assert not breaches, breaches

    @pytest.mark.parametrize("name", sorted(MUTATOR_SETS))
    def test_mutator_sets(self, pool, name):
        rows = fence(DeviceFleet(_set_spec(MUTATOR_SETS[name]), pool, master_seed=7))
        self._assert_inside(rows)
        # The same sets on a fleet large enough for the tails to show.
        spec = _set_spec(MUTATOR_SETS[name], n_devices=1500, ticks=12)
        self._assert_inside(fence(DeviceFleet(spec, pool, master_seed=7)))

    @pytest.mark.parametrize(
        "scenario",
        ["fleet-1k-drift", "fleet-burst-storm", "fleet-churn-mixed-detectors",
         "fleet-sensor-faults"],
    )
    def test_registered_scenarios(self, scenario):
        from repro.experiments import ExperimentRunner, get_scenario

        spec = get_scenario(scenario)
        runner = ExperimentRunner(spec).prepare_data()
        scenario_pool = WindowPool.from_labeled(runner.state.standardized_all)
        rows = fence(DeviceFleet(spec.fleet, scenario_pool, master_seed=spec.seed))
        self._assert_inside(rows)
        if scenario == "fleet-sensor-faults":
            assert "spike_rate" in rows and "pool_index_chi2" in rows

    def test_fence_catches_a_biased_stream(self, pool, monkeypatch):
        """The fence is not vacuous: timestamps squeezed into half a tick,
        and an anomaly rate doubled behind the spec's back, both breach."""
        spec = _set_spec((), n_devices=400, ticks=10)
        fleet = DeviceFleet(spec, pool, master_seed=7)
        original = fleet.arrivals_columnar

        def squeezed(tick):
            batch = original(tick)
            offsets = (batch.timestamps - tick) / 2
            return type(batch)(batch.windows, batch.labels, batch.device_ids,
                               tick + offsets, batch.online)

        monkeypatch.setattr(fleet, "arrivals_columnar", squeezed)
        rows = fence(fleet)
        assert abs(rows["timestamp_offset_mean"][2]) > 4
        assert abs(rows["timestamp_offset_chi2"][2]) > 4

        biased = DeviceFleet(spec, pool, master_seed=7)
        biased._anomaly_rates = biased._anomaly_rates * 2
        assert abs(fence(biased)["anomalous_fraction"][2]) > 4
