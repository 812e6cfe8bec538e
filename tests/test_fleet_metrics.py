"""Tests for the bounded-memory online metrics and their shard merge."""

import numpy as np
import pytest

from repro.evaluation.metrics import confusion_counts, rates_from_confusion
from repro.exceptions import ConfigurationError
from repro.fleet.metrics import DelayReservoir, StreamingMetrics, mix64
from repro.fleet.report import report_from_metrics


def _sample(reservoir):
    """The sampled delays as a sorted list (the sample is a set)."""
    return sorted(reservoir.sample()[0].tolist())


#: What one sampled value is: a delay, a window row, or a row with a label.
KINDS = ("delay", "row", "labelled-row")


def _stream(kind, n, seed):
    """``n`` values of ``kind`` as the ``(values, labels)`` pair to offer."""
    rng = np.random.default_rng(seed)
    if kind == "delay":
        return rng.exponential(scale=50.0, size=n), None
    rows = rng.normal(size=(n, 3, 2))
    return rows, (rng.integers(0, 2, size=n) if kind == "labelled-row" else None)


def _reservoir(kind, capacity):
    return DelayReservoir(capacity, labelled=kind == "labelled-row")


def _offer(reservoir, values, keys, labels, rows):
    """Offer the ``rows`` (an index array) of a stream to ``reservoir``."""
    reservoir.extend(values[rows], keys[rows], None if labels is None else labels[rows])


def _assert_same_sample(got, want):
    assert got.seen == want.seen
    for got_column, want_column in zip(got.sample(), want.sample(), strict=True):
        np.testing.assert_array_equal(got_column, want_column)


class TestDelayReservoir:
    def test_keeps_everything_under_capacity(self):
        reservoir = DelayReservoir(10)
        reservoir.extend([3.0, 1.0, 2.0], keys=[7, 8, 9])
        assert _sample(reservoir) == [1.0, 2.0, 3.0]
        assert reservoir.seen == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_bounded_beyond_capacity(self, kind):
        values, labels = _stream(kind, 1000, seed=1)
        reservoir = _reservoir(kind, 16)
        reservoir.extend(values, np.arange(1000), labels)
        sample = reservoir.sample()
        assert len(reservoir) == 16 and reservoir.seen == 1000
        assert len(sample) == (3 if labels is not None else 2)
        assert sample[0].shape == (16, *values.shape[1:])
        assert all(column.shape[0] == 16 for column in sample)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sample_is_the_smallest_priorities(self, kind):
        """The sample is the k values whose mix64(key) is smallest, in
        ascending priority: a fixed function of the (key, value) pairs."""
        rng = np.random.default_rng(0)
        keys = rng.permutation(5000)
        values, labels = _stream(kind, 5000, seed=0)
        reservoir = _reservoir(kind, 64)
        for chunk in np.array_split(np.arange(5000), 37):
            _offer(reservoir, values, keys, labels, chunk)
        smallest = np.argsort(mix64(keys))[:64]
        sampled, priorities, *sampled_labels = reservoir.sample()
        np.testing.assert_array_equal(sampled, values[smallest])
        np.testing.assert_array_equal(priorities, mix64(keys[smallest]))
        if labels is not None:
            np.testing.assert_array_equal(sampled_labels[0], labels[smallest])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("capacity", [16, 4000])
    def test_sample_is_order_free(self, kind, capacity):
        """One batch, window by window, reversed, or split and merged: the
        same sample, whether it is a strict subset or the whole stream."""
        values, labels = _stream(kind, 600, seed=3)
        keys = np.arange(600) * 7919
        whole = _reservoir(kind, capacity)
        _offer(whole, values, keys, labels, np.arange(600))
        one_by_one, backwards = _reservoir(kind, capacity), _reservoir(kind, capacity)
        for row in range(600):
            _offer(one_by_one, values, keys, labels, np.array([row]))
            _offer(backwards, values, keys, labels, np.array([599 - row]))
        parts = [_reservoir(kind, capacity) for _ in range(3)]
        for part, rows in zip(parts, np.array_split(np.arange(600), 3)):
            _offer(part, values, keys, labels, rows)
        for other in (one_by_one, backwards, DelayReservoir.merge(parts)):
            _assert_same_sample(other, whole)

    def test_salted_samples_of_one_stream_differ(self):
        """The controller's train and holdout samples offer one window stream
        under two key salts: the two samples must be independent."""
        values, labels = _stream("labelled-row", 2000, seed=4)
        keys = np.arange(2000, dtype=np.uint64)
        train, holdout = DelayReservoir(64), DelayReservoir(64, labelled=True)
        train.extend(values, keys ^ mix64(np.uint64(1)))
        holdout.extend(values, keys ^ mix64(np.uint64(2)), labels)
        shared = {row.tobytes() for row in train.sample()[0]}
        overlap = sum(row.tobytes() in shared for row in holdout.sample()[0])
        assert overlap <= 16

    def test_keys_must_match_values(self):
        with pytest.raises(ConfigurationError, match="keys"):
            DelayReservoir(8).extend([1.0, 2.0], keys=[1])

    def test_labels_only_on_a_labelled_reservoir(self):
        with pytest.raises(ConfigurationError, match="label"):
            DelayReservoir(8).extend([1.0, 2.0], keys=[1, 2], labels=[0, 1])
        with pytest.raises(ConfigurationError, match="label"):
            DelayReservoir(8, labelled=True).extend([1.0, 2.0], keys=[1, 2])

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            DelayReservoir(0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_payload_holds_the_k_sampled_rows(self, kind):
        """The payload carries the sample, not the 2k buffer, and rebuilds
        a reservoir that keeps sampling exactly like the original."""
        values, labels = _stream(kind, 300, seed=6)
        keys = np.arange(300)
        original = _reservoir(kind, 16)
        _offer(original, values, keys, labels, np.arange(250))
        payload = original.to_payload()
        assert payload["seen"] == 250 and payload["values"].shape[0] == 16
        rebuilt = DelayReservoir.from_payload(payload)
        for reservoir in (original, rebuilt):
            _offer(reservoir, values, keys, labels, np.arange(250, 300))
        _assert_same_sample(rebuilt, original)

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_merge_equals_the_reservoir_of_the_whole_stream(self, kind):
        """Shards of one keyed stream merge to exactly the sample one
        reservoir keeps over all of it, in any shard order."""
        rng = np.random.default_rng(5)
        values, labels = _stream(kind, 900, seed=5)
        keys = np.arange(900) * 7919
        whole = _reservoir(kind, 32)
        _offer(whole, values, keys, labels, np.arange(900))
        parts = []
        for shard in np.array_split(rng.permutation(900), 3):
            part = _reservoir(kind, 32)
            _offer(part, values, keys, labels, shard)
            parts.append(part)
        for order in (parts, parts[::-1]):
            _assert_same_sample(DelayReservoir.merge(order), whole)

    def test_merge_rejects_mixed_capacities(self):
        with pytest.raises(ConfigurationError, match="capacities"):
            DelayReservoir.merge([DelayReservoir(8), DelayReservoir(16)])

    @pytest.mark.parametrize("kind", KINDS)
    def test_merge_equivalence_under_out_of_order_batch_completion(self, kind):
        """Batches completing in any order, into any part, merge to the same
        sample: the serving front door's tier-completion order and the
        fleet's shard order cannot leak into the percentiles."""
        sizes = (5, 32, 1, 12, 20, 3, 9)
        values, labels = _stream(kind, sum(sizes), seed=23)
        keys = np.arange(sum(sizes))
        offsets = np.cumsum((0,) + sizes)
        batches = [np.arange(start, end) for start, end in zip(offsets, offsets[1:])]

        def _fill(schedule):
            parts = {"a": _reservoir(kind, 16), "b": _reservoir(kind, 16)}
            for name, index in schedule:
                _offer(parts[name], values, keys, labels, batches[index])
            return DelayReservoir.merge([parts["a"], parts["b"]])

        in_order = _fill([("a", 0), ("a", 1), ("a", 2), ("a", 3), ("b", 4), ("b", 5), ("b", 6)])
        interleaved = _fill([("b", 6), ("a", 2), ("b", 0), ("a", 5), ("a", 1), ("b", 3), ("a", 4)])
        _assert_same_sample(in_order, interleaved)
        assert in_order.seen == 82


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
