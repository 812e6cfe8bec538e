"""Declarative alerting over sliding-window rollups.

An :class:`AlertRule` names a health condition over the metrics a run is
already emitting — a threshold on a rate or rolling quantile, the absence of
a liveness counter, or a Google-SRE-style multi-window burn rate over an
error budget.  An :class:`AlertManager` evaluates its rules against a
:class:`~repro.obs.rollup.RollupRing` each time the watcher pushes a
snapshot, and drives a fire/resolve lifecycle per rule: a breach transition
emits a structured ``alert.fire`` trace event, and the alert resolves (with
``alert.resolve``) only after ``resolve_after`` consecutive healthy
evaluations — hysteresis, so a flapping signal does not spam the trace.

Alerting is strictly part of the observer: it reads snapshots and writes
trace events, and never feeds back into admission, scheduling or adaptation
decisions.  A telemetered run with every rule firing is still bit-identical
to the same run with telemetry disabled.

Edge-case semantics are pinned by tests:

* **zero traffic** — a burn-rate window whose denominator saw no requests
  burns no budget and is healthy (no division blow-up, no false page);
* **absent metrics** — a threshold or burn-rate rule naming a metric the
  run never registered raises :class:`~repro.exceptions.ConfigurationError`
  naming the rule, because a typo must not evaluate as eternally healthy;
  *absence* rules are the exception — "metric missing" is exactly what they
  alert on;
* **flapping** — a signal oscillating around the threshold keeps the alert
  firing until ``resolve_after`` consecutive healthy windows pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.rollup import LabelFilter, Rollup, RollupRing

_KINDS = ("threshold", "absence", "burn-rate")
_VALUES = ("rate", "level", "quantile", "delta")
_OPS = (">", "<")


@dataclass(frozen=True)
class AlertRule:
    """One declarative health condition.

    ``kind`` selects the evaluation:

    ``threshold``
        Read ``value`` (``rate`` / ``level`` / ``delta`` / ``quantile`` —
        quantiles use ``quantile`` as q) of ``metric`` over the last
        ``over`` snapshots and compare against ``threshold`` with ``op``.
        A quantile window with no observations is healthy.

    ``absence``
        Breach when ``metric`` is missing from the newest snapshot or its
        delta over the last ``over`` snapshots is zero — a liveness check
        (e.g. "the fleet stopped completing windows").

    ``burn-rate``
        Error-budget burn: bad events are the ``metric`` delta (with
        ``above`` set, ``metric`` must be a histogram and bad events are
        the estimated observations above that bound); the total is the
        ``denominator`` delta.  The burn rate is
        ``(bad / total) / budget``; the rule breaches only when *both* the
        fast (``over`` snapshots) and the slow (``slow_over`` snapshots)
        windows burn faster than ``factor`` — the classic multi-window
        guard against paging on a blip.
    """

    name: str
    kind: str
    metric: str
    labels: LabelFilter = ()
    #: threshold rules: which reading of the metric to compare.
    value: str = "rate"
    op: str = ">"
    threshold: float = 0.0
    #: quantile for ``value="quantile"`` threshold rules.
    quantile: float = 0.99
    #: fast-window width in snapshots (all kinds).
    over: int = 2
    #: burn-rate: the all-events counter the bad events are a fraction of.
    denominator: str = ""
    denominator_labels: LabelFilter = ()
    #: burn-rate with a histogram numerator: count observations above this.
    above: Optional[float] = None
    #: burn-rate: tolerable bad fraction (the error budget).
    budget: float = 0.05
    #: burn-rate: fire when burning ``factor``× faster than budget.
    factor: float = 2.0
    #: burn-rate: slow-window width in snapshots.
    slow_over: int = 6
    #: consecutive healthy evaluations required before resolving.
    resolve_after: int = 3

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"alert rule {self.name!r}: kind must be one of {_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "threshold" and self.value not in _VALUES:
            raise ConfigurationError(
                f"alert rule {self.name!r}: value must be one of {_VALUES}, "
                f"got {self.value!r}"
            )
        if self.op not in _OPS:
            raise ConfigurationError(
                f"alert rule {self.name!r}: op must be one of {_OPS}, "
                f"got {self.op!r}"
            )
        if self.kind == "burn-rate" and not self.denominator:
            raise ConfigurationError(
                f"alert rule {self.name!r}: burn-rate rules need a "
                "denominator metric"
            )
        if self.over < 1 or (self.kind == "burn-rate" and self.slow_over < self.over):
            raise ConfigurationError(
                f"alert rule {self.name!r}: windows must satisfy "
                f"1 <= over <= slow_over, got over={self.over} "
                f"slow_over={self.slow_over}"
            )
        if self.resolve_after < 1:
            raise ConfigurationError(
                f"alert rule {self.name!r}: resolve_after must be >= 1, "
                f"got {self.resolve_after}"
            )

    # -- evaluation ------------------------------------------------------

    def _require(self, rollup: Rollup, metric: str) -> None:
        if not rollup.has(metric):
            raise ConfigurationError(
                f"alert rule {self.name!r} references unknown metric "
                f"{metric!r}: the run never registered it (typo, or the "
                "subsystem that emits it is not running)"
            )

    def _burn_rate(self, rollup: Rollup) -> float:
        total = rollup.delta(self.denominator, self.denominator_labels)
        if total <= 0:
            # Zero traffic burns zero budget: an idle service is healthy,
            # and 0/0 must not page anyone.
            return 0.0
        if self.above is not None:
            fraction = rollup.fraction_above(self.metric, self.above, self.labels)
            bad = (fraction or 0.0) * rollup.delta(self.metric, self.labels)
        else:
            bad = rollup.delta(self.metric, self.labels)
        if self.budget <= 0:
            raise ConfigurationError(
                f"alert rule {self.name!r}: budget must be > 0, got {self.budget}"
            )
        return (bad / total) / self.budget

    def evaluate(self, ring: RollupRing) -> Tuple[bool, Dict[str, Any]]:
        """``(breached, detail)`` for the current ring state.

        With fewer than two snapshots nothing is evaluable and every kind
        reports healthy (the run has not produced a window yet).
        """
        rollup = ring.rollup(over=self.over)
        if rollup is None:
            return False, {"reason": "warming-up"}

        if self.kind == "absence":
            if not rollup.has(self.metric):
                return True, {"reason": "metric-missing"}
            delta = rollup.delta(self.metric, self.labels)
            return delta <= 0, {"delta": delta}

        self._require(rollup, self.metric)

        if self.kind == "threshold":
            if self.value == "rate":
                reading: Optional[float] = rollup.rate(self.metric, self.labels)
            elif self.value == "level":
                reading = rollup.level(self.metric, self.labels)
            elif self.value == "delta":
                reading = rollup.delta(self.metric, self.labels)
            else:
                reading = rollup.quantile(self.metric, self.quantile, self.labels)
            if reading is None:
                return False, {"reason": "no-observations"}
            breached = reading > self.threshold if self.op == ">" else reading < self.threshold
            return breached, {"value": reading, "threshold": self.threshold}

        # burn-rate: both windows must burn hot.
        self._require(rollup, self.denominator)
        fast = self._burn_rate(rollup)
        slow_rollup = ring.rollup(over=self.slow_over)
        slow = self._burn_rate(slow_rollup) if slow_rollup is not None else fast
        breached = fast > self.factor and slow > self.factor
        return breached, {"fast_burn": fast, "slow_burn": slow, "factor": self.factor}


@dataclass
class _RuleState:
    firing: bool = False
    healthy_streak: int = 0
    fired_at: Optional[float] = None


class AlertManager:
    """Evaluates rules against a ring and drives fire/resolve lifecycle.

    ``telemetry`` (a :class:`~repro.obs.export.Telemetry`, or anything with
    an ``event(name, **attrs)`` method) receives ``alert.fire`` and
    ``alert.resolve`` events on transitions; pass ``None`` to just track
    state (tests, offline evaluation).
    """

    def __init__(self, rules, telemetry=None) -> None:
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate alert rule names: {sorted(names)}")
        self.telemetry = telemetry
        self._states: Dict[str, _RuleState] = {r.name: _RuleState() for r in self.rules}

    @property
    def active(self) -> List[str]:
        """Names of currently-firing alerts, sorted."""
        return sorted(n for n, s in self._states.items() if s.firing)

    def _emit(self, name: str, **attributes: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.event(name, **attributes)

    def evaluate(self, ring: RollupRing, key: float) -> List[str]:
        """Evaluate every rule at progress ``key``; return active names."""
        for rule in self.rules:
            breached, detail = rule.evaluate(ring)
            state = self._states[rule.name]
            if breached:
                state.healthy_streak = 0
                if not state.firing:
                    state.firing = True
                    state.fired_at = float(key)
                    self._emit(
                        "alert.fire",
                        alert=rule.name,
                        rule_kind=rule.kind,
                        key=float(key),
                        **detail,
                    )
            elif state.firing:
                state.healthy_streak += 1
                if state.healthy_streak >= rule.resolve_after:
                    state.firing = False
                    state.healthy_streak = 0
                    self._emit(
                        "alert.resolve",
                        alert=rule.name,
                        rule_kind=rule.kind,
                        key=float(key),
                        fired_at=state.fired_at,
                    )
                    state.fired_at = None
        return self.active


def default_serving_rules(spec=None) -> Tuple[AlertRule, ...]:
    """The stock rule set for ``repro serve`` watches.

    * ``slo-burn-rate`` — multi-window burn over the admission counters:
      shed + rejected + expired requests as a fraction of submissions,
      against a 5% budget.  This is the rule the overload recipe (and CI)
      expects to fire under 2x overload and resolve once the queue drains.
    * ``latency-slo-burn`` — burn over served latency observations above
      the SLO p99 bound, against a 1% budget.
    """
    slo_ms = float(getattr(spec, "slo_p99_ms", 1500.0))
    return (
        AlertRule(
            name="slo-burn-rate",
            kind="burn-rate",
            metric="serve_requests_total",
            labels=(("status", ("shed", "rejected", "expired")),),
            denominator="serve_requests_total",
            denominator_labels=(("status", "submitted"),),
            budget=0.05,
            factor=2.0,
            over=2,
            slow_over=6,
            resolve_after=3,
        ),
        AlertRule(
            name="latency-slo-burn",
            kind="burn-rate",
            metric="serve_latency_ms",
            above=slo_ms,
            denominator="serve_requests_total",
            denominator_labels=(("status", "served"),),
            budget=0.01,
            factor=2.0,
            over=2,
            slow_over=6,
            resolve_after=3,
        ),
    )


def default_fleet_rules() -> Tuple[AlertRule, ...]:
    """The stock rule set for ``repro fleet`` watches.

    * ``fleet-stalled`` — absence rule on window completions: the fleet is
      supposed to finish windows every tick, so a window with zero
      completions means a stalled or wedged run.
    """
    return (
        AlertRule(
            name="fleet-stalled",
            kind="absence",
            metric="fleet_tier_windows_total",
            over=2,
            resolve_after=2,
        ),
    )
