"""Alert rules, burn-rate semantics and the fire/resolve lifecycle.

The edge cases the module docstring promises are pinned here: zero-traffic
burn-rate windows are healthy, absent metrics fail loudly by rule name
(except for absence rules, whose whole job is noticing the gap), and a
flapping signal keeps its alert firing until ``resolve_after`` consecutive
healthy windows pass.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    default_fleet_rules,
    default_serving_rules,
)
from repro.obs.export import Telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.rollup import RollupRing


def _serve_registry(submitted=0, served=0, shed=0, latencies=()):
    registry = MetricsRegistry()
    requests = registry.counter("serve_requests_total", labelnames=("status",))
    requests.labels(status="submitted").value += submitted
    requests.labels(status="served").value += served
    requests.labels(status="shed").value += shed
    histogram = registry.histogram(
        "serve_latency_ms", buckets=(10.0, 100.0, 1000.0, 5000.0)
    )
    for value in latencies:
        histogram.observe(value)
    return registry


def _advance(ring, key, **counts):
    """Push a fresh cumulative snapshot built from running totals."""
    ring.push(key, _serve_registry(**counts))


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            AlertRule(name="x", kind="gradient", metric="m")

    def test_burn_rate_needs_denominator(self):
        with pytest.raises(ConfigurationError, match="denominator"):
            AlertRule(name="x", kind="burn-rate", metric="m")

    def test_window_ordering_enforced(self):
        with pytest.raises(ConfigurationError, match="slow_over"):
            AlertRule(
                name="x", kind="burn-rate", metric="m",
                denominator="d", over=4, slow_over=2,
            )

    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule(name="same", kind="absence", metric="m")
        with pytest.raises(ConfigurationError, match="duplicate"):
            AlertManager([rule, rule])

    def test_default_rule_sets_construct(self):
        names = [r.name for r in default_serving_rules()]
        assert names == ["slo-burn-rate", "latency-slo-burn"]
        assert [r.name for r in default_fleet_rules()] == ["fleet-stalled"]


class TestThresholdLifecycle:
    RULE = AlertRule(
        name="shed-rate", kind="threshold",
        metric="serve_requests_total", labels=(("status", "shed"),),
        value="rate", threshold=1.0, over=1, resolve_after=2,
    )

    def test_fire_and_resolve_with_hysteresis(self):
        telemetry = Telemetry(name="hysteresis-test")
        manager = AlertManager([self.RULE], telemetry)
        ring = RollupRing()
        _advance(ring, 0, submitted=10)
        assert manager.evaluate(ring, 0) == []  # warming up

        _advance(ring, 1, submitted=20, shed=8)  # shed rate 8 > 1: fire
        assert manager.evaluate(ring, 1) == ["shed-rate"]
        assert [(e["name"], e["key"]) for e in telemetry.events] == [("alert.fire", 1.0)]

        _advance(ring, 2, submitted=30, shed=8)  # healthy window 1 of 2
        assert manager.evaluate(ring, 2) == ["shed-rate"]
        _advance(ring, 3, submitted=40, shed=8)  # healthy window 2 of 2
        assert manager.evaluate(ring, 3) == []
        assert manager.active == []
        assert telemetry.events[-1]["name"] == "alert.resolve"
        assert telemetry.events[-1]["fired_at"] == 1.0

    def test_flapping_signal_stays_firing(self):
        manager = AlertManager([self.RULE])
        ring = RollupRing()
        shed = 0
        _advance(ring, 0, submitted=0)
        manager.evaluate(ring, 0)
        # Alternate hot and cold windows: the single healthy window between
        # breaches never reaches resolve_after=2, so the alert never clears.
        for step in range(1, 9):
            shed += 5 if step % 2 else 0
            _advance(ring, step, submitted=10 * step, shed=shed)
            assert manager.evaluate(ring, step) == ["shed-rate"]

    def test_fire_and_resolve_events_emitted(self):
        telemetry = Telemetry(name="alert-test")
        manager = AlertManager([self.RULE], telemetry)
        ring = RollupRing()
        _advance(ring, 0, submitted=0)
        manager.evaluate(ring, 0)
        _advance(ring, 1, submitted=10, shed=9)
        manager.evaluate(ring, 1)
        for key in (2, 3):
            _advance(ring, key, submitted=10 * key, shed=9)
            manager.evaluate(ring, key)
        names = [e["name"] for e in telemetry.events]
        assert names == ["alert.fire", "alert.resolve"]
        fire, resolve = telemetry.events
        assert fire["alert"] == "shed-rate" and fire["key"] == 1.0
        assert resolve["fired_at"] == 1.0 and resolve["key"] == 3.0
        # The rule kind must not collide with the record's own schema field.
        assert fire["kind"] == resolve["kind"] == "event"
        assert fire["rule_kind"] == resolve["rule_kind"] == "threshold"

    def test_event_reserved_fields_rejected(self):
        telemetry = Telemetry(name="guard-test")
        with pytest.raises(ConfigurationError, match="reserved"):
            telemetry.event("bad", kind="boom")


class TestBurnRate:
    RULE = AlertRule(
        name="slo-burn", kind="burn-rate",
        metric="serve_requests_total", labels=(("status", "shed"),),
        denominator="serve_requests_total",
        denominator_labels=(("status", "submitted"),),
        budget=0.05, factor=2.0, over=1, slow_over=3, resolve_after=1,
    )

    def test_zero_traffic_is_healthy(self):
        manager = AlertManager([self.RULE])
        ring = RollupRing()
        _advance(ring, 0, submitted=100, shed=50)
        # No new submissions in-window: denominator delta 0 -> burn 0.
        _advance(ring, 1, submitted=100, shed=50)
        assert manager.evaluate(ring, 1) == []
        assert self.RULE.evaluate(ring)[1]["fast_burn"] == 0.0

    def test_both_windows_must_burn(self):
        manager = AlertManager([self.RULE])
        ring = RollupRing()
        # Long healthy history, then one hot window: the fast window burns
        # but the slow window dilutes it below the factor -> no page.
        _advance(ring, 0, submitted=0, shed=0)
        _advance(ring, 1, submitted=1000, shed=0)
        _advance(ring, 2, submitted=2000, shed=0)
        _advance(ring, 3, submitted=2100, shed=12)
        breached, detail = self.RULE.evaluate(ring)
        assert detail["fast_burn"] > 2.0
        assert detail["slow_burn"] < 2.0
        assert breached is False
        # Sustained burn: both windows hot -> fire.
        _advance(ring, 4, submitted=2200, shed=40)
        _advance(ring, 5, submitted=2300, shed=70)
        assert manager.evaluate(ring, 5) == ["slo-burn"]

    def test_histogram_numerator_counts_above_bound(self):
        rule = AlertRule(
            name="latency-burn", kind="burn-rate",
            metric="serve_latency_ms", above=1000.0,
            denominator="serve_requests_total",
            denominator_labels=(("status", "served"),),
            budget=0.01, factor=2.0, over=1, slow_over=1,
        )
        ring = RollupRing()
        _advance(ring, 0)
        # 10 served, 3 slower than the 1000ms bound: 30% bad vs 1% budget.
        _advance(
            ring, 1, served=10,
            latencies=[50.0] * 7 + [3000.0] * 3,
        )
        breached, detail = rule.evaluate(ring)
        assert breached is True
        assert detail["fast_burn"] == pytest.approx(30.0)


class TestAbsentMetrics:
    def test_threshold_on_unknown_metric_raises_by_rule_name(self):
        rule = AlertRule(
            name="typo-rule", kind="threshold", metric="serve_requets_total",
        )
        ring = RollupRing()
        _advance(ring, 0)
        _advance(ring, 1, submitted=5)
        with pytest.raises(ConfigurationError, match="typo-rule"):
            rule.evaluate(ring)

    def test_burn_rate_unknown_denominator_raises(self):
        rule = AlertRule(
            name="bad-denominator", kind="burn-rate",
            metric="serve_requests_total", denominator="not_a_metric",
        )
        ring = RollupRing()
        _advance(ring, 0)
        _advance(ring, 1, submitted=5)
        with pytest.raises(ConfigurationError, match="bad-denominator"):
            rule.evaluate(ring)

    def test_absence_rule_breaches_instead_of_raising(self):
        rule = AlertRule(name="stalled", kind="absence", metric="never_seen")
        ring = RollupRing()
        _advance(ring, 0)
        _advance(ring, 1, submitted=5)
        breached, detail = rule.evaluate(ring)
        assert breached is True
        assert detail == {"reason": "metric-missing"}

    def test_absence_resolves_when_metric_moves(self):
        rule = AlertRule(
            name="stalled", kind="absence",
            metric="serve_requests_total", over=1, resolve_after=1,
        )
        manager = AlertManager([rule])
        ring = RollupRing()
        _advance(ring, 0, submitted=5)
        manager.evaluate(ring, 0)
        _advance(ring, 1, submitted=5)  # no progress -> stalled
        assert manager.evaluate(ring, 1) == ["stalled"]
        _advance(ring, 2, submitted=9)  # moving again -> resolves
        assert manager.evaluate(ring, 2) == []
