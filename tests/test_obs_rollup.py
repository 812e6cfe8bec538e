"""Sliding-window rollups and histogram quantile estimation.

Two contracts pinned here:

* :func:`estimate_quantile` is a pure function of the *summed* bucket
  counts, so it is exact under merge reordering — however shard registries
  are split and merged, equal totals give equal quantiles (the
  merge-invariance property the cross-shard telemetry relies on);
* a :class:`RollupRing` turns cumulative registry snapshots into
  window-local deltas, rates and rolling quantiles, with loud errors for
  misspelled metrics and non-monotone keys.
"""

import random

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    estimate_fraction_above,
    estimate_quantile,
)
from repro.obs.rollup import DEFAULT_CAPACITY, RollupRing


class TestEstimateQuantile:
    BOUNDS = (1.0, 2.0, 5.0, 10.0)

    def test_empty_histogram_is_none(self):
        assert estimate_quantile(self.BOUNDS, [0, 0, 0, 0, 0], 0.5) is None

    def test_single_bucket_interpolates_from_lower_bound(self):
        # 10 observations all in (2, 5]: p50 is the bucket midpoint.
        counts = [0, 0, 10, 0, 0]
        assert estimate_quantile(self.BOUNDS, counts, 0.5) == pytest.approx(3.5)

    def test_first_bucket_interpolates_from_zero(self):
        counts = [4, 0, 0, 0, 0]
        assert estimate_quantile(self.BOUNDS, counts, 0.5) == pytest.approx(0.5)

    def test_rank_in_inf_bucket_clamps_to_largest_finite_bound(self):
        counts = [0, 0, 0, 0, 7]
        assert estimate_quantile(self.BOUNDS, counts, 0.99) == 10.0

    def test_quantile_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_quantile(self.BOUNDS, [1, 0, 0, 0, 0], 1.5)

    def test_fraction_above(self):
        # 6 of 10 observations are in buckets entirely above 2.0.
        counts = [2, 2, 4, 2, 0]
        assert estimate_fraction_above(self.BOUNDS, counts, 2.0) == pytest.approx(0.6)
        assert estimate_fraction_above(self.BOUNDS, counts, 0.0) == pytest.approx(1.0)

    def test_fraction_above_empty_is_none(self):
        assert estimate_fraction_above(self.BOUNDS, [0] * 5, 2.0) is None


class TestMergeInvariance:
    """Quantiles are exact under any shard split and merge order."""

    def _observe_all(self, values):
        registry = MetricsRegistry()
        family = registry.histogram("latency_ms", buckets=DEFAULT_BUCKETS)
        for value in values:
            family.observe(value)
        return registry

    def _quantiles(self, registry):
        family = registry.get("latency_ms")
        return tuple(family.quantile(q) for q in (0.5, 0.9, 0.99))

    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_split_and_merge_matches_serial(self, n_shards):
        rng = random.Random(1234 + n_shards)
        values = [rng.uniform(0.1, 4000.0) for _ in range(400)]
        serial = self._observe_all(values)

        shards = [self._observe_all(values[i::n_shards]) for i in range(n_shards)]
        order = list(range(n_shards))
        rng.shuffle(order)
        merged = MetricsRegistry()
        for index in order:
            merged.merge_from(shards[index])

        assert self._quantiles(merged) == self._quantiles(serial)
        # Bucket counts are integers and merge exactly; the float ``sum``
        # may differ in the last ulp with summation order, which is fine —
        # quantiles read only the counts.
        merged_cell = merged.get("latency_ms")._default()
        serial_cell = serial.get("latency_ms")._default()
        assert merged_cell.counts == serial_cell.counts
        assert merged_cell.count == serial_cell.count
        assert merged_cell.sum == pytest.approx(serial_cell.sum)

    def test_cell_quantile_matches_function(self):
        rng = random.Random(7)
        values = [rng.uniform(0.5, 900.0) for _ in range(100)]
        registry = self._observe_all(values)
        family = registry.get("latency_ms")
        cell = family._default()
        assert family.quantile(0.9) == estimate_quantile(
            family.buckets, cell.counts, 0.9
        )


class TestRollupRing:
    def _snap(self, served, shed, latencies=(), depth=None):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total", labelnames=("status",))
        requests.labels(status="served").value += served
        requests.labels(status="shed").value += shed
        histogram = registry.histogram("latency_ms", buckets=(10.0, 100.0, 1000.0))
        for value in latencies:
            histogram.observe(value)
        if depth is not None:
            registry.gauge("queue_depth").set(depth)
        return registry

    def test_needs_two_snapshots(self):
        ring = RollupRing()
        assert ring.rollup() is None
        ring.push(1.0, self._snap(10, 0))
        assert ring.rollup() is None
        ring.push(2.0, self._snap(14, 1))
        assert ring.rollup() is not None

    def test_delta_rate_and_level(self):
        ring = RollupRing()
        ring.push(0.0, self._snap(0, 0, depth=3.0))
        ring.push(4.0, self._snap(20, 2, depth=7.0))
        rollup = ring.rollup()
        assert rollup.span == 4.0
        assert rollup.delta("requests_total") == 22.0
        assert rollup.delta("requests_total", (("status", "served"),)) == 20.0
        assert rollup.rate("requests_total", (("status", "served"),)) == 5.0
        assert rollup.level("queue_depth") == 7.0

    def test_label_alternatives_sum(self):
        ring = RollupRing()
        ring.push(0.0, self._snap(0, 0))
        ring.push(1.0, self._snap(5, 3))
        rollup = ring.rollup()
        both = rollup.delta(
            "requests_total", (("status", ("served", "shed")),)
        )
        assert both == 8.0

    def test_unknown_label_name_rejected(self):
        ring = RollupRing()
        ring.push(0.0, self._snap(0, 0))
        ring.push(1.0, self._snap(1, 0))
        with pytest.raises(ConfigurationError, match="no label 'tier'"):
            ring.rollup().delta("requests_total", (("tier", "edge"),))

    def test_unknown_metric_raises_by_name(self):
        ring = RollupRing()
        ring.push(0.0, self._snap(0, 0))
        ring.push(1.0, self._snap(1, 0))
        with pytest.raises(ConfigurationError, match="no_such_metric"):
            ring.rollup().delta("no_such_metric")

    def test_gauge_delta_rejected(self):
        ring = RollupRing()
        ring.push(0.0, self._snap(0, 0, depth=1.0))
        ring.push(1.0, self._snap(1, 0, depth=2.0))
        with pytest.raises(ConfigurationError, match="gauge"):
            ring.rollup().delta("queue_depth")

    def test_window_quantile_is_window_local(self):
        ring = RollupRing()
        base = self._snap(0, 0, latencies=[5.0] * 100)
        ring.push(0.0, base)
        follow = MetricsRegistry.from_payload(base.to_payload())
        for _ in range(10):
            follow.get("latency_ms").observe(500.0)
        ring.push(1.0, follow)
        rollup = ring.rollup()
        # Only the 10 in-window observations count: the rolling p50 sits in
        # the (100, 1000] bucket despite 100 old 5ms observations.
        assert rollup.delta("latency_ms") == 10.0
        assert rollup.quantile("latency_ms", 0.5) > 100.0

    def test_empty_window_quantile_is_none(self):
        ring = RollupRing()
        snap = self._snap(0, 0, latencies=[5.0])
        ring.push(0.0, snap)
        ring.push(1.0, MetricsRegistry.from_payload(snap.to_payload()))
        assert ring.rollup().quantile("latency_ms", 0.5) is None

    def test_snapshots_do_not_alias_live_registry(self):
        ring = RollupRing()
        live = self._snap(1, 0)
        ring.push(0.0, live)
        live.get("requests_total").labels(status="served").value += 100
        ring.push(1.0, live)
        assert ring.rollup().delta("requests_total") == 100.0

    def test_keys_strictly_increasing(self):
        ring = RollupRing()
        ring.push(2.0, self._snap(0, 0))
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            ring.push(2.0, self._snap(1, 0))

    def test_capacity_bounds_memory_and_window_clamps(self):
        ring = RollupRing(capacity=4)
        for key in range(10):
            ring.push(float(key), self._snap(key, 0))
        assert len(ring) == 4
        # over=100 clamps to the oldest retained snapshot (key 6 of 6..9).
        rollup = ring.rollup(over=100)
        assert rollup.span == 3.0
        assert rollup.delta("requests_total", (("status", "served"),)) == 3.0

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            RollupRing(capacity=1)
        with pytest.raises(ConfigurationError):
            RollupRing().rollup(over=0)

    def test_default_capacity_covers_slow_burn_window(self):
        assert DEFAULT_CAPACITY >= 8
