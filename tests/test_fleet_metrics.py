"""Tests for the bounded-memory online metrics and their shard merge."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.fleet.metrics import (
    DelayReservoir,
    StreamingMetrics,
    confusion_counts,
    mix64,
    rates_from_confusion,
)
from repro.fleet.report import report_from_metrics


def _sample(reservoir):
    """The sampled delays as a sorted list (the sample is a set)."""
    return sorted(reservoir.sample()[0].tolist())


class TestDelayReservoir:
    def test_keeps_everything_under_capacity(self):
        reservoir = DelayReservoir(10)
        reservoir.extend([3.0, 1.0, 2.0], keys=[7, 8, 9])
        assert _sample(reservoir) == [1.0, 2.0, 3.0]
        assert reservoir.seen == 3

    def test_bounded_beyond_capacity(self):
        reservoir = DelayReservoir(16)
        reservoir.extend(np.arange(1000, dtype=float), keys=np.arange(1000))
        assert len(_sample(reservoir)) == 16
        assert reservoir.seen == 1000

    def test_sample_is_the_smallest_priorities(self):
        """The sample is the k values whose mix64(key) is smallest, in
        ascending priority: a fixed function of the (key, value) pairs."""
        rng = np.random.default_rng(0)
        keys = rng.permutation(5000)
        values = rng.normal(size=5000)
        reservoir = DelayReservoir(64)
        for chunk in np.array_split(np.arange(5000), 37):
            reservoir.extend(values[chunk], keys[chunk])
        smallest = np.argsort(mix64(keys))[:64]
        sampled, priorities = reservoir.sample()
        np.testing.assert_array_equal(sampled, values[smallest])
        np.testing.assert_array_equal(priorities, mix64(keys[smallest]))

    def test_keys_must_match_values(self):
        with pytest.raises(ConfigurationError, match="keys"):
            DelayReservoir(8).extend([1.0, 2.0], keys=[1])

    def test_percentiles_on_full_sample(self):
        reservoir = DelayReservoir(1000)
        reservoir.extend(np.arange(101, dtype=float), keys=np.arange(101))
        assert reservoir.percentile(50.0) == pytest.approx(50.0)
        assert reservoir.percentile(100.0) == pytest.approx(100.0)

    def test_merge_single_part_is_identity(self):
        part = DelayReservoir(8)
        part.extend([5.0, 6.0, 7.0], keys=[1, 2, 3])
        merged = DelayReservoir.merge([part])
        assert _sample(merged) == _sample(part)
        assert merged.seen == part.seen

    def test_merge_equals_the_reservoir_of_the_whole_stream(self):
        """Shards of one keyed stream merge to exactly the sample one
        reservoir keeps over all of it, in any shard order."""
        rng = np.random.default_rng(5)
        values = rng.exponential(scale=50.0, size=900)
        keys = np.arange(900) * 7919
        whole = DelayReservoir(32)
        whole.extend(values, keys)
        parts = []
        for shard in np.array_split(rng.permutation(900), 3):
            part = DelayReservoir(32)
            part.extend(values[shard], keys[shard])
            parts.append(part)
        for order in (parts, parts[::-1]):
            merged = DelayReservoir.merge(order)
            assert merged.seen == 900
            for got, want in zip(merged.sample(), whole.sample()):
                np.testing.assert_array_equal(got, want)

    def test_merge_rejects_mixed_capacities(self):
        with pytest.raises(ConfigurationError, match="capacities"):
            DelayReservoir.merge([DelayReservoir(8), DelayReservoir(16)])

    def test_merge_equivalence_under_out_of_order_batch_completion(self):
        """Batches completing in any order, into any part, merge to the same
        sample: the serving front door's tier-completion order and the
        fleet's shard order cannot leak into the percentiles."""
        rng = np.random.default_rng(23)
        sizes = (5, 32, 1, 12, 20, 3, 9)
        batches = [rng.exponential(scale=10.0, size=n) for n in sizes]
        offsets = np.cumsum((0,) + sizes)
        keyed = [(batch, np.arange(start, start + batch.size))
                 for batch, start in zip(batches, offsets)]

        def _fill(schedule):
            parts = {"a": DelayReservoir(16), "b": DelayReservoir(16)}
            for name, index in schedule:
                parts[name].extend(*keyed[index])
            return DelayReservoir.merge([parts["a"], parts["b"]])

        in_order = _fill([("a", 0), ("a", 1), ("a", 2), ("a", 3), ("b", 4), ("b", 5), ("b", 6)])
        interleaved = _fill([("b", 6), ("a", 2), ("b", 0), ("a", 5), ("a", 1), ("b", 3), ("a", 4)])
        assert _sample(in_order) == _sample(interleaved)
        assert in_order.seen == interleaved.seen == 82


class TestConfusionCounts:
    @staticmethod
    def _four_masks(predictions, labels):
        """The four-mask formulation ``confusion_counts`` replaced."""
        return np.array(
            [
                np.sum((predictions == 1) & (labels == 1)),
                np.sum((predictions == 1) & (labels == 0)),
                np.sum((predictions == 0) & (labels == 0)),
                np.sum((predictions == 0) & (labels == 1)),
            ],
            dtype=np.int64,
        )

    def test_matches_the_four_mask_reference(self):
        rng = np.random.default_rng(17)
        for n in (0, 1, 2, 7, 64, 1000):
            for _ in range(20):
                predictions = rng.integers(0, 2, size=n)
                labels = rng.integers(0, 2, size=n)
                counts = confusion_counts(predictions, labels)
                assert counts.dtype == np.int64
                np.testing.assert_array_equal(
                    counts, self._four_masks(predictions, labels)
                )

    @pytest.mark.parametrize(
        "predictions, labels",
        [([0, 2], [0, 1]), ([0, 1], [2, 0]), ([-1], [1]), ([1], [-1]), ([3], [0])],
    )
    def test_non_binary_input_raises(self, predictions, labels):
        with pytest.raises(ConfigurationError, match="0/1"):
            confusion_counts(np.array(predictions), np.array(labels))


def assert_same_payload(a: dict, b: dict) -> None:
    """Two :meth:`StreamingMetrics.to_payload` dicts hold the same bits."""
    assert sorted(a) == sorted(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), key
        assert np.asarray(a[key]).dtype == np.asarray(b[key]).dtype, key


class TestStreamingMetrics:
    def _metrics(self, ticks=8, window=4, layers=3, reservoir=64):
        return StreamingMetrics(
            ticks=ticks, metrics_window=window, n_layers=layers, reservoir_size=reservoir
        )

    def test_confusion_and_windowed_counts(self):
        metrics = self._metrics()
        metrics.observe(
            0, 1,
            predictions=np.array([1, 0, 1, 0]),
            labels=np.array([1, 0, 0, 1]),
            delays_ms=np.array([10.0, 10.0, 10.0, 10.0]),
            keys=np.arange(4),
        )
        metrics.observe(
            5, 2,
            predictions=np.array([1]),
            labels=np.array([1]),
            delays_ms=np.array([40.0]),
            keys=np.array([4]),
        )
        np.testing.assert_array_equal(metrics.confusion, [2, 1, 1, 1])
        np.testing.assert_array_equal(metrics.windowed_confusion[0], [1, 1, 1, 1])
        np.testing.assert_array_equal(metrics.windowed_confusion[1], [1, 0, 0, 0])
        assert metrics.n_windows == 5
        np.testing.assert_array_equal(metrics.layer_requests, [0, 4, 1])
        assert metrics.delay_sum == 80_000_000
        assert metrics.delay_max == 40.0

    def test_delay_sums_are_exact_nanoseconds(self):
        """Each delay is rounded to ns once; the sums are exact integers, so
        a tier that always took 504.564768 ms reports exactly that mean."""
        metrics = self._metrics()
        for tick in range(8):
            metrics.observe(
                tick, 2, np.zeros(3), np.zeros(3), np.full(3, 504.564768),
                keys=np.arange(3) + 3 * tick,
            )
        report = report_from_metrics("exact", metrics, ("a", "b", "c"), n_devices=3)
        assert metrics.layer_delay_sum[2] == 24 * 504_564_768
        assert report.tiers[2].mean_delay_ms == 504.564768
        assert report.delay.mean_ms == 504.564768
        assert [block.mean_delay_ms for block in report.windowed] == [504.564768] * 2

    def test_out_of_range_tick_rejected(self):
        with pytest.raises(ConfigurationError, match="tick"):
            self._metrics(ticks=4).observe(
                4, 0, np.array([1]), np.array([1]), np.array([1.0]), np.array([0])
            )

    def test_merge_is_additive_and_shape_checked(self):
        a, b = self._metrics(), self._metrics()
        a.observe(0, 0, np.array([1]), np.array([1]), np.array([5.0]), np.array([0]))
        b.observe(7, 2, np.array([0]), np.array([1]), np.array([9.0]), np.array([1]))
        a.record_uptime(3, 1)
        b.record_uptime(4, 0)
        merged = StreamingMetrics.merge([a, b])
        np.testing.assert_array_equal(merged.confusion, a.confusion + b.confusion)
        np.testing.assert_array_equal(
            merged.layer_requests, a.layer_requests + b.layer_requests
        )
        assert merged.online_device_ticks == 7
        assert merged.offline_device_ticks == 1
        assert merged.reservoir.seen == 2
        assert_same_payload(merged.to_payload(), StreamingMetrics.merge([b, a]).to_payload())
        with pytest.raises(ConfigurationError, match="different shapes"):
            StreamingMetrics.merge([a, self._metrics(ticks=99)])

    def test_rates_from_confusion(self):
        rates = rates_from_confusion(np.array([2, 1, 6, 1]))
        assert rates["accuracy"] == pytest.approx(0.8)
        assert rates["precision"] == pytest.approx(2 / 3)
        assert rates["recall"] == pytest.approx(2 / 3)
        assert rates["f1"] == pytest.approx(2 / 3)
        assert rates["anomaly_fraction"] == pytest.approx(0.3)
        empty = rates_from_confusion(np.zeros(4, dtype=int))
        assert empty["accuracy"] == 0.0 and empty["f1"] == 0.0


class TestReportAssembly:
    def test_report_round_trips_and_sums_add_up(self, tmp_path):
        metrics = StreamingMetrics(ticks=8, metrics_window=4, n_layers=2, reservoir_size=64)
        rng = np.random.default_rng(0)
        for tick in range(8):
            n = 5
            metrics.observe(
                tick,
                tick % 2,
                predictions=rng.integers(0, 2, size=n),
                labels=rng.integers(0, 2, size=n),
                delays_ms=rng.uniform(1.0, 9.0, size=n),
                keys=np.arange(n) + n * tick,
            )
            metrics.record_uptime(5, 0)
        report = report_from_metrics("unit", metrics, ("edge", "cloud"), n_devices=5)
        assert report.n_windows == 40
        assert sum(w.n_windows for w in report.windowed) == report.n_windows
        assert sum(t.requests for t in report.tiers) == report.n_windows
        assert sum(t.fraction for t in report.tiers) == pytest.approx(1.0)
        assert report.delay.p50_ms <= report.delay.p90_ms <= report.delay.p99_ms
        assert report.delay.max_ms >= report.delay.p99_ms

        path = report.to_json(tmp_path / "report.json")
        from repro.fleet.report import FleetReport

        assert FleetReport.from_json(path) == report
        assert "Fleet report for unit" in report.summary()


class TestStreamingMetricsEdgeCases:
    """Satellite pins: corner shapes the columnar path must honour too."""

    def _metrics(self, **overrides):
        kwargs = dict(ticks=8, metrics_window=4, n_layers=3, reservoir_size=16)
        kwargs.update(overrides)
        return StreamingMetrics(**kwargs)

    def test_all_devices_offline_tick(self):
        """A tick with zero online devices aggregates cleanly to zeros."""
        metrics = self._metrics()
        metrics.record_uptime(0, 10)
        assert metrics.online_device_ticks == 0
        assert metrics.offline_device_ticks == 10
        assert metrics.n_windows == 0
        report = report_from_metrics("idle", metrics, ("a", "b", "c"), n_devices=10)
        assert report.n_windows == 0
        assert report.accuracy == 0.0
        assert report.delay.mean_ms == 0.0
        assert all(tier.requests == 0 for tier in report.tiers)
        assert all(block.n_windows == 0 for block in report.windowed)

    def test_single_tier_takes_a_whole_tick(self):
        """Every arrival routed to one tier: the other tiers stay untouched."""
        metrics = self._metrics()
        metrics.record_uptime(6, 0)
        metrics.observe(
            0, 1,
            predictions=np.array([1, 0, 1, 0]),
            labels=np.array([1, 0, 0, 0]),
            delays_ms=np.full(4, 2.5),
            keys=np.arange(4),
        )
        assert metrics.layer_requests.tolist() == [0, 4, 0]
        assert metrics.layer_anomalies.tolist() == [0, 2, 0]
        assert metrics.layer_delay_sum.tolist() == [0, 10_000_000, 0]
        report = report_from_metrics("one-tier", metrics, ("a", "b", "c"), n_devices=6)
        assert report.tiers[1].fraction == pytest.approx(1.0)
        assert report.tiers[1].mean_delay_ms == 2.5
        assert report.tiers[0].fraction == 0.0
        assert report.tiers[2].mean_delay_ms == 0.0

    def test_merge_with_zero_arrival_shard(self):
        """An all-quiet shard merges as the identity on every count."""
        busy = self._metrics()
        busy.record_uptime(4, 0)
        busy.observe(
            1, 0,
            predictions=np.array([1, 0]),
            labels=np.array([1, 1]),
            delays_ms=np.array([3.0, 4.0]),
            keys=np.array([0, 1]),
        )
        quiet = self._metrics()
        quiet.record_uptime(0, 4)

        merged = StreamingMetrics.merge([busy, quiet])
        assert np.array_equal(merged.confusion, busy.confusion)
        assert np.array_equal(merged.windowed_confusion, busy.windowed_confusion)
        assert merged.delay_sum == busy.delay_sum
        assert _sample(merged.reservoir) == _sample(busy.reservoir)
        assert merged.reservoir.seen == busy.reservoir.seen
        assert merged.online_device_ticks == 4
        assert merged.offline_device_ticks == 4

    def test_payload_round_trip_is_exact(self):
        """to_payload/from_payload is the one state codec: a rebuilt
        aggregator re-emits the same payload and keeps sampling as the
        original does (it serves checkpoints as well as shard results)."""
        metrics = self._metrics()
        metrics.record_uptime(3, 1)
        rng = np.random.default_rng(4)
        for tick in range(3):
            metrics.observe(
                tick, tick % 3,
                predictions=rng.integers(0, 2, size=12),
                labels=rng.integers(0, 2, size=12),
                delays_ms=rng.uniform(1.0, 9.0, size=12),
                keys=np.arange(12) + 12 * tick,
                redirected=tick,
            )
        rebuilt = StreamingMetrics.from_payload(metrics.to_payload())
        assert_same_payload(rebuilt.to_payload(), metrics.to_payload())
        assert rebuilt.shape == metrics.shape
        for aggregator in (metrics, rebuilt):
            aggregator.observe(
                5, 0, np.ones(30), np.ones(30), np.arange(30.0), keys=np.arange(36, 66)
            )
        assert_same_payload(rebuilt.to_payload(), metrics.to_payload())
