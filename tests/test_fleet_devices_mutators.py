"""Tests for the workload generators: device streams and stream mutators."""

import numpy as np
import pytest

from repro.fleet import stream_cache
from repro.fleet.devices import DeviceFleet, WindowPool, device_rng
from repro.fleet.mutators import (
    AdversarialCamouflage,
    AnomalyBurst,
    ConceptDrift,
    DeviceChurn,
    PhaseJitter,
    SensorSpike,
    SensorStuck,
    StreamMutator,
)
from repro.fleet.spec import FleetSpec, MutatorSpec


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(0)
    normal = rng.normal(size=(12, 21))
    anomalous = rng.normal(loc=3.0, size=(5, 21))
    return WindowPool(normal=normal, anomalous=anomalous)


@pytest.fixture()
def cold_cache():
    """Start from (and leave behind) empty creation/stream caches."""
    stream_cache.clear()
    yield
    stream_cache.clear()


@pytest.fixture()
def no_cache(cold_cache):
    """Every fleet draws from its own device RNGs (caches disabled)."""
    previous = stream_cache.set_enabled(False)
    yield
    stream_cache.set_enabled(previous)


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


def _assert_batches_equal(a, b):
    assert a.online == b.online
    for field in ("windows", "labels", "device_ids", "timestamps"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestWindowPool:
    def test_shape_mismatch_rejected(self):
        from repro.exceptions import ConfigurationError

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
    def test_same_seed_same_stream(self, pool, no_cache):
        spec = FleetSpec(n_devices=4, ticks=6, arrival_rate=1.0, seed=3)
        a = DeviceFleet(spec, pool, device_ids=[2])
        b = DeviceFleet(spec, pool, device_ids=[2])
        streams = list(zip(_stream(a), _stream(b)))
        assert sum(x.n for x, _ in streams) > 0
        for x, y in streams:
            _assert_batches_equal(x, y)

    def test_stream_independent_of_other_devices(self, pool, no_cache):
        """A device's stream depends only on (master seed, fleet seed, id)."""
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

    def test_device_rng_is_pure_function(self):
        a = device_rng(1, 2, 3).integers(0, 1 << 30, size=4)
        b = device_rng(1, 2, 3).integers(0, 1 << 30, size=4)
        c = device_rng(1, 2, 4).integers(0, 1 << 30, size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


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
        states = [device.states[0] for device in fleet.devices]
        stacked = churn.stack_states(states)
        online = np.stack(
            [churn.online_batch(stacked, states, tick) for tick in range(8)]
        )
        # Every device goes dark and returns within one period.
        assert np.all(online.any(axis=0)) and not np.any(online.all(axis=0))

    def test_zero_fraction_never_drops(self, pool):
        churn = DeviceChurn(churn_fraction=0.0)
        states = [churn.device_state(np.random.default_rng(0), pool.window_shape)]
        stacked = churn.stack_states(states)
        assert all(churn.online_batch(stacked, states, tick).all() for tick in range(100))

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

    def _states(self, mutator):
        return [
            mutator.device_state_for(device_id, device_rng(0, 1, device_id), self.SHAPE)
            for device_id in range(3)
        ]

    def _check(self, mutator, windows, reference, tick=5, draws=None, states=None):
        states = self._states(mutator) if states is None else states
        expected = np.stack(
            [reference(w, states[row], i) for i, (w, row) in enumerate(zip(windows, self.ROWS))]
        )
        observed = mutator.transform_batch(
            windows.copy(), mutator.stack_states(states), self.ROWS, tick, draws
        )
        np.testing.assert_array_equal(observed, expected)
        assert not np.array_equal(observed, windows)  # the transform did something

    @pytest.mark.parametrize("saturation_tick", [0, 3])
    def test_concept_drift_adds_scaled_direction(self, windows, saturation_tick):
        drift = ConceptDrift(drift_per_tick=0.05, saturation_tick=saturation_tick)
        tick = min(5, saturation_tick) if saturation_tick else 5
        self._check(
            drift, windows, lambda w, state, i: w + 0.05 * tick * state["drift_direction"]
        )

    def test_phase_jitter_rolls_along_time(self, windows):
        jitter = PhaseJitter(max_shift=4)
        draws = [1, -1, 0, 1, 0, -1, 1, 0]
        self._check(
            jitter,
            windows,
            lambda w, state, i: np.roll(w, state["base_shift"] + draws[i], axis=0),
            draws=draws,
        )

    def test_sensor_stuck_fills_a_constant(self, windows):
        states = [
            {"stuck": True, "stuck_value": 0.75},
            {"stuck": False, "stuck_value": 9.0},
            {"stuck": True, "stuck_value": -1.25},
        ]
        self._check(
            SensorStuck(),
            windows,
            lambda w, state, i: (
                np.full(w.shape, state["stuck_value"]) if state["stuck"] else w
            ),
            states=states,
        )

    def test_sensor_spike_adds_to_one_timestep(self, windows):
        spike = SensorSpike(spike_rate=0.5, spike_magnitude=6.0)
        draws = [None, 2, 6, None, 0, None, 2, None]

        def reference(w, state, i):
            w = w.copy()
            if draws[i] is not None:
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


class TestColumnarArrivals:
    """Arrival streams are pinned to goldens recorded from the per-window path."""

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

    def _spec(self, mutators):
        return FleetSpec(
            n_devices=24, ticks=5, arrival_rate=1.2, anomaly_rate=0.2, seed=3,
            mutators=mutators,
        )

    @pytest.mark.parametrize("name", sorted(MUTATOR_SETS))
    @pytest.mark.parametrize("cached", [True, False])
    def test_stream_matches_golden(self, pool, golden, cold_cache, name, cached):
        previous = stream_cache.set_enabled(cached)
        try:
            fleet = DeviceFleet(self._spec(self.MUTATOR_SETS[name]), pool, master_seed=7)
            golden(f"fleet/arrivals-{name}.npz", _stream_payload(fleet))
        finally:
            stream_cache.set_enabled(previous)

    def test_shard_subset_matches_golden(self, pool, golden, cold_cache):
        fleet = DeviceFleet(
            self._spec(self.MUTATOR_SETS["all"]), pool, master_seed=7,
            device_ids=[2, 9, 17],
        )
        golden("fleet/arrivals-all-subset.npz", _stream_payload(fleet))

    def test_cached_replay_never_materialises_generators(self, pool, cold_cache):
        """A full cache hit replays the stream without touching any RNG."""
        spec = self._spec(self.MUTATOR_SETS["drift"])
        generated = _stream(DeviceFleet(spec, pool, master_seed=7))
        second = DeviceFleet(spec, pool, master_seed=7)
        for a, b in zip(generated, _stream(second)):
            _assert_batches_equal(a, b)
        # Snapshot-restored devices never needed their generators.
        assert all(device._rng is None for device in second.devices)

    def test_uncached_access_must_be_sequential(self, pool, no_cache):
        from repro.exceptions import ConfigurationError

        fleet = DeviceFleet(self._spec(()), pool, master_seed=7)
        fleet.arrivals_columnar(0)
        with pytest.raises(ConfigurationError, match="sequentially"):
            fleet.arrivals_columnar(2)

    def test_custom_batch_aware_mutator_uses_fast_path(self, pool, cold_cache, monkeypatch):
        """A subclass overriding only batch hooks streams correctly (uncached)."""

        class Shifter(StreamMutator):
            def transform_batch(self, windows, stacked, rows, tick, draws):
                windows += 1.0
                return windows

        spec = self._spec(())
        plain = _stream(DeviceFleet(spec, pool, master_seed=7))
        stream_cache.clear()
        monkeypatch.setattr(FleetSpec, "build_mutators", lambda self: (Shifter(),))
        shifted = _stream(DeviceFleet(spec, pool, master_seed=7))
        # A mutator the caches cannot vouch for keeps its fleet out of them.
        assert stream_cache.cache_stats() == (0, 0)
        for a, b in zip(plain, shifted):
            np.testing.assert_array_equal(b.windows, a.windows + 1.0)
            np.testing.assert_array_equal(b.timestamps, a.timestamps)

    def test_stream_cache_budget_bounds_memory_not_correctness(
        self, pool, golden, cold_cache, monkeypatch
    ):
        """Ticks beyond the per-entry budget stay correct, just uncached."""
        monkeypatch.setattr(stream_cache, "STREAM_CACHE_MAX_ARRIVALS", 20)
        spec = self._spec(self.MUTATOR_SETS["drift"])
        first = DeviceFleet(spec, pool, master_seed=7)
        _stream(first)
        entry = stream_cache.stream_entry(first._stream_key)
        assert entry.cached_arrivals <= 20
        assert len(entry.chunks) < spec.ticks  # budget actually bit

        # A replaying fleet crosses the budget edge and regenerates.
        second = DeviceFleet(spec, pool, master_seed=7)
        golden("fleet/arrivals-drift.npz", _stream_payload(second))


class TestMutatorComposition:
    """Property tests over random mutator pairs stacked on one device class.

    Stacking any two registered mutators must (a) reproduce the stream the
    per-window path recorded for that pair, and (b) keep every device's
    stream a pure function of its device id — a fleet holding only a subset
    of the devices replays exactly the same per-device draws, so composition
    never perturbs the per-device RNG draw order.
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
        from repro.fleet.spec import DeviceClassSpec

        return FleetSpec(
            n_devices=16, ticks=6, arrival_rate=1.0, anomaly_rate=0.2, seed=5,
            device_classes=(
                DeviceClassSpec(name="only", weight=1.0, arrival_rate=1.0),
            ),
            mutators=mutators,
        )

    @pytest.mark.parametrize("draw", range(10))
    def test_random_pairs_match_golden(self, pool, golden, cold_cache, draw):
        fleet = DeviceFleet(self._spec(self._pair(draw)), pool, master_seed=11)
        golden(f"fleet/arrivals-pair-{draw}.npz", _stream_payload(fleet))

    @pytest.mark.parametrize("draw", range(10))
    def test_random_pairs_preserve_per_device_draw_order(self, pool, cold_cache, draw):
        spec = self._spec(self._pair(1000 + draw))
        subset_ids = [3, 7, 12]
        full = _stream(DeviceFleet(spec, pool, master_seed=11))
        subset = _stream(DeviceFleet(spec, pool, master_seed=11, device_ids=subset_ids))
        for whole, part in zip(full, subset):
            kept = np.isin(whole.device_ids, subset_ids)
            np.testing.assert_array_equal(whole.device_ids[kept], part.device_ids)
            np.testing.assert_array_equal(whole.timestamps[kept], part.timestamps)
            np.testing.assert_array_equal(whole.labels[kept], part.labels)
            np.testing.assert_array_equal(whole.windows[kept], part.windows)
