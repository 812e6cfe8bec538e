"""Scenario qualification matrix: hostile workloads with pinned contracts.

This module qualifies the reproduction like an instrument: a *pack* of
registered hostile/heterogeneous scenarios runs end to end, and every
scenario carries one or more **pinned pass/fail contracts** — a named bound
on a metric of the resulting :class:`~repro.fleet.report.FleetReport` or
:class:`~repro.serving.report.ServingReport` that encodes the failure mode
the scenario exists to exercise (flash-crowd overload, tier partition,
correlated drift, sensor corruption, adversarial camouflage, heterogeneous
device classes).  The output is a machine-readable
:class:`QualificationReport` whose JSON layout is pinned by its own type
hints: :meth:`QualificationReport.from_dict` (the shared
:class:`~repro.utils.serialization.JsonRecord` codec) rejects a payload with a
missing or unknown key or a leaf of the wrong type, naming its dotted path.

Alerting is wired in, not bolted on: every qualification run attaches the
stock :func:`~repro.obs.alerts.default_fleet_rules` /
:func:`~repro.obs.alerts.default_serving_rules` watch, and every contract is
mirrored as a threshold alert over a per-contract margin gauge — a contract
breach therefore also emits an ``alert.fire`` trace event, and the two
verdicts agree by construction (pinned by the qualification tests).

The CLI front end is ``repro qualify``::

    python -m repro.cli qualify --pack hostile --output-dir reports/
    python -m repro.cli qualify --pack hostile --scenario qualify-flash-crowd
    python -m repro.cli qualify --pack control   # deliberately fails

Exit codes follow the instrument convention: 0 = every contract passed,
1 = at least one contract failed, 2 = configuration error (unknown pack or
scenario, invalid ``--set qualify.*`` override, malformed contract).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.registry import get_scenario, register_scenario
from repro.experiments.scenarios import univariate_power
from repro.experiments.spec import ExperimentSpec, _coerce_override
from repro.fleet.faults import FaultEvent, FaultSpec
from repro.fleet.report import FleetReport
from repro.fleet.spec import DeviceClassSpec, FleetSpec, LoadCurveSpec, MutatorSpec
from repro.serving.report import ServingReport
from repro.serving.spec import ServingSpec
from repro.utils.serialization import JsonRecord

#: Comparison operators a contract may pin.
CONTRACT_OPS = (">=", "<=", "==")

#: Case kinds: which optional runner stage the scenario exercises.
CASE_KINDS = ("fleet", "serve")

#: Floor guard for ratio metrics (a zero trough must not divide away).
_EPS = 1e-9


# -- contracts --------------------------------------------------------------------


@dataclass(frozen=True)
class ContractSpec(JsonRecord):
    """One pinned pass/fail bound on a report metric.

    ``metric`` names either a derived qualification metric (see
    :func:`resolve_metric`) or a dotted path into the report's
    :meth:`to_dict` payload (e.g. ``"latency.p99_ms"``, ``"delay.p99_ms"``).
    """

    name: str
    metric: str
    op: str
    bound: float
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a contract needs a non-empty name")
        if not self.metric:
            raise ConfigurationError(
                f"contract {self.name!r} needs a non-empty metric"
            )
        if self.op not in CONTRACT_OPS:
            raise ConfigurationError(
                f"contract {self.name!r}: op must be one of {CONTRACT_OPS}, "
                f"got {self.op!r}"
            )
        try:
            object.__setattr__(self, "bound", float(self.bound))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"contract {self.name!r}: bound must be a number, "
                f"got {self.bound!r}"
            ) from exc

    def margin(self, value: float) -> float:
        """Signed distance from the bound: >= 0 exactly when the contract holds."""
        if self.op == ">=":
            return float(value - self.bound)
        if self.op == "<=":
            return float(self.bound - value)
        return -abs(float(value) - self.bound)

    def holds(self, value: float) -> bool:
        """Whether ``value`` satisfies the pinned bound."""
        return self.margin(value) >= 0.0


@dataclass(frozen=True)
class QualifyCase:
    """One scenario of a pack: the failure mode it exercises and its contracts."""

    scenario: str
    failure_mode: str
    contracts: Tuple[ContractSpec, ...]
    kind: str = "fleet"

    def __post_init__(self) -> None:
        object.__setattr__(self, "contracts", tuple(self.contracts))
        if self.kind not in CASE_KINDS:
            raise ConfigurationError(
                f"case {self.scenario!r}: kind must be one of {CASE_KINDS}, "
                f"got {self.kind!r}"
            )
        if not self.contracts:
            raise ConfigurationError(
                f"case {self.scenario!r} needs at least one contract"
            )
        names = [c.name for c in self.contracts]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"case {self.scenario!r} has duplicate contract names: {sorted(names)}"
            )


# -- metric resolution ------------------------------------------------------------


def _derived_fleet(report: FleetReport) -> Dict[str, float]:
    """Qualification metrics derived from a fleet report."""
    blocks = [w.f1 for w in report.windowed if w.n_windows > 0]
    trough = min(blocks) if blocks else 0.0
    final = blocks[-1] if blocks else 0.0
    return {
        "anomaly_fraction": (
            float(report.n_anomalous / report.n_windows) if report.n_windows else 0.0
        ),
        "redirected_total": float(sum(t.redirected for t in report.tiers)),
        "min_window_f1": float(trough),
        "final_window_f1": float(final),
        #: Last metrics window's F1 over the trough window's: > 1 means the
        #: system climbed back out of its worst stretch.
        "recovery_ratio": float(final / max(trough, _EPS)) if blocks else 0.0,
        "online_fraction": (
            float(
                report.online_device_ticks
                / (report.online_device_ticks + report.offline_device_ticks)
            )
            if (report.online_device_ticks + report.offline_device_ticks)
            else 0.0
        ),
    }


def _derived_serving(report: ServingReport) -> Dict[str, float]:
    """Qualification metrics derived from a serving report."""
    return {
        "slo_met": 1.0 if report.slo_met else 0.0,
        "redirected_total": float(sum(t.redirected for t in report.tiers)),
        "served_fraction": (
            float(report.n_served / report.n_submitted) if report.n_submitted else 0.0
        ),
    }


def resolve_metric(report, metric: str) -> float:
    """The numeric value ``metric`` names on ``report``.

    Derived qualification metrics win; anything else is a dotted path into
    the report's :meth:`to_dict` payload.  Non-numeric targets and unknown
    names raise :class:`ConfigurationError` (a typo in a contract must fail
    the run loudly, not evaluate as eternally healthy).
    """
    derived = (
        _derived_fleet(report)
        if isinstance(report, FleetReport)
        else _derived_serving(report)
    )
    if metric in derived:
        return derived[metric]
    node: Any = report.to_dict()
    for segment in metric.split("."):
        if isinstance(node, Mapping) and segment in node:
            node = node[segment]
        elif isinstance(node, (list, tuple)):
            try:
                node = node[int(segment)]
            except (ValueError, IndexError) as exc:
                raise ConfigurationError(
                    f"contract metric {metric!r}: {segment!r} does not index "
                    f"into the report"
                ) from exc
        else:
            raise ConfigurationError(
                f"contract metric {metric!r} not found on "
                f"{type(report).__name__}; derived metrics: {sorted(derived)}"
            )
    if isinstance(node, bool):
        return 1.0 if node else 0.0
    if not isinstance(node, (int, float)):
        raise ConfigurationError(
            f"contract metric {metric!r} resolves to a "
            f"{type(node).__name__}, not a number"
        )
    return float(node)


# -- results ----------------------------------------------------------------------


@dataclass(frozen=True)
class ContractResult(JsonRecord):
    """One evaluated contract: the pinned bound, the observed value, the verdict."""

    name: str
    metric: str
    op: str
    bound: float
    value: float
    margin: float
    passed: bool
    description: str


@dataclass(frozen=True)
class CaseResult(JsonRecord):
    """One qualified scenario: its contracts' verdicts and the alerts fired."""

    scenario: str
    failure_mode: str
    kind: str
    passed: bool
    contracts: Tuple[ContractResult, ...]
    #: Names of ``alert.fire`` events this case emitted — the stock watch
    #: rules plus one ``contract:<scenario>:<name>`` alert per breach.
    alerts: Tuple[str, ...]


@dataclass(frozen=True)
class QualificationReport(JsonRecord):
    """The machine-readable outcome of one pack run."""

    pack: str
    seed: int
    passed: bool
    n_contracts: int
    n_failed: int
    cases: Tuple[CaseResult, ...]
    schema_version: int

    def failed_contracts(self) -> List[str]:
        """``"scenario:contract"`` labels of every failed contract."""
        return [
            f"{case.scenario}:{contract.name}"
            for case in self.cases
            for contract in case.contracts
            if not contract.passed
        ]

    def summary(self) -> str:
        """Plain-text qualification matrix: one line per contract."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"Qualification report for pack {self.pack!r} (seed {self.seed}): "
            f"{verdict} ({self.n_contracts - self.n_failed}/{self.n_contracts} "
            "contracts hold)",
        ]
        for case in self.cases:
            status = "pass" if case.passed else "FAIL"
            lines.append(f"  {case.scenario} [{case.failure_mode}] ({case.kind}): {status}")
            for contract in case.contracts:
                mark = "ok " if contract.passed else "BAD"
                lines.append(
                    f"    {mark} {contract.name}: {contract.metric} {contract.op} "
                    f"{contract.bound:g} (observed {contract.value:g}, "
                    f"margin {contract.margin:+.4g})"
                )
            if case.alerts:
                lines.append(f"    alerts fired: {', '.join(case.alerts)}")
        return "\n".join(lines)


# -- the qualify spec and its --set overrides -------------------------------------


@dataclass(frozen=True)
class QualifySpec(JsonRecord):
    """One qualification run: which pack, at what seed and scale."""

    pack: str = "hostile"
    seed: int = 0
    #: Run only this scenario of the pack (``None`` = the whole pack).
    scenario: Optional[str] = None
    #: Multipliers shrinking each case's workload (CI smoke); tick-indexed
    #: structure (flash windows, fault windows) scales along with the ticks.
    ticks_scale: float = 1.0
    devices_scale: float = 1.0
    requests_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("ticks_scale", "devices_scale", "requests_scale"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not value > 0:
                raise ConfigurationError(
                    f"qualify.{name} must be a positive number, got {value!r}"
                )


def apply_qualify_overrides(
    spec: QualifySpec, overrides: Mapping[str, Any]
) -> QualifySpec:
    """A copy of ``spec`` with ``--set qualify.<field>=value`` overrides applied.

    Keys outside the ``qualify.`` namespace and unknown fields raise
    :class:`ConfigurationError` — the CLI turns those into its uniform
    one-line ``error:`` exit-2 path.
    """
    payload = spec.to_dict()
    for key, raw in overrides.items():
        prefix, _, field_name = str(key).partition(".")
        if prefix != "qualify" or not field_name or "." in field_name:
            raise ConfigurationError(
                f"qualify overrides use --set qualify.<field>=value, got {key!r}"
            )
        if field_name not in payload:
            raise ConfigurationError(
                f"unknown key {key!r}; valid keys: "
                f"{sorted('qualify.' + name for name in payload)}"
            )
        payload[field_name] = _coerce_override(raw, payload[field_name], key)
    return QualifySpec.from_dict(payload)


# -- workload scaling -------------------------------------------------------------


def _scale_tick(tick: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(tick * scale)))


def scaled_case_spec(spec: ExperimentSpec, qualify: QualifySpec) -> ExperimentSpec:
    """``spec`` with the qualify scale multipliers applied.

    Tick-indexed structure — flash-crowd windows and fault-event windows —
    scales with ``ticks_scale`` so a shrunken run still crosses the same
    phases (hostile window opens, bites, closes) as the full-size one.
    """
    fleet = spec.fleet
    if fleet is not None:
        changes: Dict[str, Any] = {}
        if qualify.devices_scale != 1.0:
            changes["n_devices"] = max(
                max(4, fleet.n_shards), int(round(fleet.n_devices * qualify.devices_scale))
            )
        if qualify.ticks_scale != 1.0:
            changes["ticks"] = _scale_tick(fleet.ticks, qualify.ticks_scale, minimum=2)
            if fleet.load_curve is not None:
                curve = fleet.load_curve
                changes["load_curve"] = replace(
                    curve,
                    flash_at_tick=_scale_tick(curve.flash_at_tick, qualify.ticks_scale, 0),
                    flash_ticks=(
                        _scale_tick(curve.flash_ticks, qualify.ticks_scale)
                        if curve.flash_ticks
                        else 0
                    ),
                )
        if changes:
            spec = replace(spec, fleet=replace(fleet, **changes))
    if spec.faults is not None and qualify.ticks_scale != 1.0:
        events = tuple(
            replace(
                event,
                at_tick=_scale_tick(event.at_tick, qualify.ticks_scale, 0),
                until_tick=(
                    None
                    if event.until_tick is None
                    else _scale_tick(event.until_tick, qualify.ticks_scale)
                ),
            )
            for event in spec.faults.events
        )
        spec = replace(spec, faults=replace(spec.faults, events=events))
    if spec.serve is not None and qualify.requests_scale != 1.0:
        spec = replace(
            spec,
            serve=replace(
                spec.serve,
                max_requests=max(
                    spec.serve.max_batch,
                    int(round(spec.serve.max_requests * qualify.requests_scale)),
                ),
            ),
        )
    return spec


# -- the engine -------------------------------------------------------------------


def _training_key(spec: ExperimentSpec) -> str:
    """Cache key over the stages up to ``train_policy`` (workload nodes excluded)."""
    payload = spec.to_dict()
    for key in ("name", "dataset_name", "description", "fleet", "adapt", "faults",
                "serve", "obs"):
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True)


class QualificationEngine:
    """Run a qualification pack and assemble the :class:`QualificationReport`.

    Cases sharing identical data/detector/topology/deployment/policy specs
    train once; each case then streams or serves against a deep copy of the
    trained state, so hostile workloads (adaptation swaps, link mutations)
    never contaminate their siblings.
    """

    def __init__(self, spec: QualifySpec, telemetry=None, printer=None) -> None:
        from repro.obs.export import Telemetry

        self.spec = spec
        #: Every qualification run is telemetered (alert wiring needs the
        #: event stream); an in-memory session when no directory was asked for.
        self.telemetry = telemetry if telemetry is not None else Telemetry(
            name=f"qualify-{spec.pack}"
        )
        self.printer = printer
        self._trained: Dict[str, Any] = {}

    # -- case execution ----------------------------------------------------------

    def _runner_for(self, spec: ExperimentSpec):
        from repro.experiments.runner import ExperimentRunner

        key = _training_key(spec)
        if key not in self._trained:
            trainer = ExperimentRunner(spec)
            trainer.prepare_data()
            trainer.fit_detectors()
            trainer.deploy()
            trainer.train_policy()
            self._trained[key] = trainer.state
        runner = ExperimentRunner(spec, telemetry=self.telemetry)
        runner.state = copy.deepcopy(self._trained[key])
        return runner

    def _fire_contract_alerts(
        self, case: QualifyCase, results: Tuple[ContractResult, ...]
    ) -> Tuple[str, ...]:
        """Mirror the contract verdicts as alerts; returns the fired names.

        Each contract becomes a threshold rule over its margin gauge
        (breached exactly when the margin is negative), so contract
        evaluation and alerting cannot disagree.
        """
        from repro.obs.alerts import AlertManager, AlertRule
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.rollup import RollupRing

        registry = MetricsRegistry()
        gauge = registry.gauge(
            "qualify_contract_margin",
            "Signed pass margin per qualification contract (negative = breach).",
            labelnames=("scenario", "contract"),
        )
        rules = []
        for result in results:
            cell = gauge.labels(scenario=case.scenario, contract=result.name)
            cell.value = float(result.margin)
            rules.append(
                AlertRule(
                    name=f"contract:{case.scenario}:{result.name}",
                    kind="threshold",
                    metric="qualify_contract_margin",
                    labels=(("scenario", case.scenario), ("contract", result.name)),
                    value="level",
                    op="<",
                    threshold=0.0,
                    over=1,
                    resolve_after=1,
                )
            )
        ring = RollupRing(4)
        ring.push(0.0, registry)
        ring.push(1.0, registry)
        manager = AlertManager(tuple(rules), telemetry=self.telemetry)
        manager.evaluate(ring, key=1.0)
        return tuple(manager.active)

    def run_case(self, case: QualifyCase) -> CaseResult:
        """Train (cached), run and qualify one scenario of the pack."""
        from repro.obs.alerts import default_fleet_rules, default_serving_rules
        from repro.obs.live import RollupWatcher

        spec = scaled_case_spec(
            get_scenario(case.scenario).with_seed(self.spec.seed), self.spec
        )
        runner = self._runner_for(spec)
        # Satellite wiring: the stock health rules watch the run itself, so a
        # wedged fleet or a burning SLO fires during qualification too.
        rules = (
            default_serving_rules(spec.serve)
            if case.kind == "serve"
            else default_fleet_rules()
        )
        self.telemetry.watcher = RollupWatcher(
            self.telemetry, rules=rules, every=1.0, label=case.scenario
        )
        try:
            report = runner.run_serve() if case.kind == "serve" else runner.run_fleet()
        finally:
            run_alerts = tuple(self.telemetry.watcher.alerts.active)
            self.telemetry.watcher = None
        results = []
        for contract in case.contracts:
            value = resolve_metric(report, contract.metric)
            results.append(
                ContractResult(
                    name=contract.name,
                    metric=contract.metric,
                    op=contract.op,
                    bound=contract.bound,
                    value=value,
                    margin=contract.margin(value),
                    passed=contract.holds(value),
                    description=contract.description,
                )
            )
        results = tuple(results)
        contract_alerts = self._fire_contract_alerts(case, results)
        result = CaseResult(
            scenario=case.scenario,
            failure_mode=case.failure_mode,
            kind=case.kind,
            passed=all(r.passed for r in results),
            contracts=results,
            alerts=tuple(sorted(set(run_alerts) | set(contract_alerts))),
        )
        if self.printer is not None:
            status = "pass" if result.passed else "FAIL"
            self.printer(f"qualify {case.scenario}: {status}")
        return result

    def run(self) -> QualificationReport:
        """Run the pack (or the selected scenario) and assemble the report."""
        cases = get_pack(self.spec.pack)
        if self.spec.scenario is not None:
            matched = tuple(c for c in cases if c.scenario == self.spec.scenario)
            if not matched:
                raise ConfigurationError(
                    f"scenario {self.spec.scenario!r} is not in pack "
                    f"{self.spec.pack!r}; cases: {[c.scenario for c in cases]}"
                )
            cases = matched
        case_results = tuple(self.run_case(case) for case in cases)
        n_contracts = sum(len(c.contracts) for c in case_results)
        n_failed = sum(
            1 for c in case_results for contract in c.contracts if not contract.passed
        )
        return QualificationReport(
            pack=self.spec.pack,
            seed=self.spec.seed,
            passed=n_failed == 0,
            n_contracts=n_contracts,
            n_failed=n_failed,
            cases=case_results,
            schema_version=1,
        )


def run_qualification(
    spec: QualifySpec, telemetry=None, printer=None
) -> QualificationReport:
    """One-call front end over :class:`QualificationEngine`."""
    return QualificationEngine(spec, telemetry=telemetry, printer=printer).run()


# -- the qualification scenarios --------------------------------------------------


def _qualify_base(name: str, description: str) -> ExperimentSpec:
    """The shared full-strength training base of every qualification scenario.

    One identical offline stack (data, detectors, topology, policy) across
    the pack means the engine trains once and every case's verdict isolates
    its hostile workload, not training variance.  Training at the default
    ``univariate-power`` scale costs well under a second, so the contracts
    qualify properly-trained detectors, not starved ones.
    """
    return replace(univariate_power(), name=name, description=description)


@register_scenario("qualify-hetero-classes", tags=("qualify", "fleet", "extended"))
def qualify_hetero_classes() -> ExperimentSpec:
    """Heterogeneous device classes: three hardware tiers share one fleet."""
    return replace(
        _qualify_base(
            "qualify-hetero-classes",
            "96 devices across three classes (lite / standard / industrial) "
            "with per-class arrival rates, anomaly rates and amplitude "
            "calibration; detection quality must hold across the mix",
        ),
        fleet=FleetSpec(
            n_devices=96,
            ticks=16,
            arrival_rate=0.4,
            anomaly_rate=0.08,
            metrics_window=4,
            device_classes=(
                DeviceClassSpec(name="lite", weight=3.0, arrival_rate=0.25),
                DeviceClassSpec(
                    name="standard", weight=2.0, arrival_rate=0.5, anomaly_rate=0.12
                ),
                DeviceClassSpec(
                    name="industrial",
                    weight=1.0,
                    arrival_rate=1.0,
                    amplitude_scale=1.1,
                    amplitude_offset=0.05,
                ),
            ),
        ),
    )


@register_scenario("qualify-flash-crowd", tags=("qualify", "fleet", "extended"))
def qualify_flash_crowd() -> ExperimentSpec:
    """Diurnal load with a 6x flash-crowd spike mid-run."""
    return replace(
        _qualify_base(
            "qualify-flash-crowd",
            "64-device fleet on a diurnal load curve hit by a 6x flash crowd "
            "for ticks [8, 10); quality must hold through the spike",
        ),
        fleet=FleetSpec(
            n_devices=64,
            ticks=16,
            arrival_rate=0.4,
            anomaly_rate=0.08,
            metrics_window=4,
            load_curve=LoadCurveSpec(
                diurnal_amplitude=0.4,
                diurnal_period=12.0,
                flash_multiplier=6.0,
                flash_at_tick=8,
                flash_ticks=2,
            ),
        ),
    )


@register_scenario("qualify-tier-partition", tags=("qualify", "serving", "extended"))
def qualify_tier_partition() -> ExperimentSpec:
    """The edge->cloud uplink partitions while the front door is serving."""
    return replace(
        _qualify_base(
            "qualify-tier-partition",
            "open-loop serving while the edge->cloud uplink is down for ticks "
            "[3, 8): cloud-bound batches retry with backoff, fail over to the "
            "edge, and the p99 SLO holds with zero dropped requests",
        ),
        fleet=FleetSpec(n_devices=32, ticks=10, arrival_rate=1.0, anomaly_rate=0.08),
        serve=ServingSpec(offered_rps=150.0, max_requests=192),
        faults=FaultSpec(
            events=(FaultEvent(kind="link-down", at_tick=3, until_tick=8, link=1),),
            failover_retries=2,
            retry_timeout_ms=25.0,
        ),
    )


@register_scenario("qualify-correlated-drift", tags=("qualify", "fleet", "extended"))
def qualify_correlated_drift() -> ExperimentSpec:
    """Cohorts of devices drift together in a shared direction; adaptation recovers."""
    from repro.adapt.spec import AdaptSpec

    return replace(
        _qualify_base(
            "qualify-correlated-drift",
            "64-device fleet whose four cohorts drift in correlated "
            "directions; the adaptation loop must retrain and climb back "
            "out of the quality trough",
        ),
        fleet=FleetSpec(
            n_devices=64,
            ticks=32,
            arrival_rate=0.5,
            anomaly_rate=0.08,
            metrics_window=4,
            mutators=(
                MutatorSpec(
                    kind="correlated-drift",
                    drift_per_tick=0.05,
                    drift_cohorts=4,
                    drift_seed=0,
                ),
            ),
        ),
        adapt=AdaptSpec(min_retrain_windows=32, retrain_epochs=3, warmup_ticks=4),
    )


@register_scenario("qualify-sensor-faults", tags=("qualify", "fleet", "extended"))
def qualify_sensor_faults() -> ExperimentSpec:
    """Stuck-at, spike and dropout sensor faults corrupt the observable signal."""
    return replace(
        _qualify_base(
            "qualify-sensor-faults",
            "64-device fleet with stuck sensors, random spikes and devices "
            "going silent; degradation must stay bounded and the dropouts "
            "must actually register as offline device-ticks",
        ),
        fleet=FleetSpec(
            n_devices=64,
            ticks=16,
            arrival_rate=0.5,
            anomaly_rate=0.08,
            metrics_window=4,
            mutators=(
                MutatorSpec(kind="sensor-stuck", stuck_fraction=0.1, stuck_scale=1.0),
                MutatorSpec(kind="sensor-spike", spike_rate=0.05, spike_magnitude=6.0),
                MutatorSpec(
                    kind="sensor-dropout", dropout_fraction=0.1, dropout_horizon=16
                ),
            ),
        ),
    )


@register_scenario("qualify-camouflage", tags=("qualify", "fleet", "extended"))
def qualify_camouflage() -> ExperimentSpec:
    """An adversary rescales anomalous windows toward the normal amplitude."""
    return replace(
        _qualify_base(
            "qualify-camouflage",
            "64-device fleet whose windows are adversarially rescaled toward "
            "the normal RMS amplitude; detection must degrade gracefully, "
            "not collapse",
        ),
        fleet=FleetSpec(
            n_devices=64,
            ticks=16,
            arrival_rate=0.5,
            anomaly_rate=0.08,
            metrics_window=4,
            mutators=(
                MutatorSpec(
                    kind="camouflage",
                    camouflage_target=1.0,
                    camouflage_strength=0.6,
                ),
            ),
        ),
    )


@register_scenario("qualify-control-broken", tags=("qualify", "control", "extended"))
def qualify_control_broken() -> ExperimentSpec:
    """Deliberately-unsatisfiable control: proves the matrix can fail."""
    return replace(
        _qualify_base(
            "qualify-control-broken",
            "tiny healthy fleet pinned against an impossible F1 bound; this "
            "control case exists to prove a contract violation is detected, "
            "named and exits nonzero",
        ),
        fleet=FleetSpec(
            n_devices=16, ticks=8, arrival_rate=0.5, anomaly_rate=0.1, metrics_window=4
        ),
    )


# -- the packs --------------------------------------------------------------------

#: The qualification matrix: one named contract per failure mode.  Bounds are
#: pinned at the default scale under seed 0 with deliberate slack — they gate
#: collapse, not noise — and every fleet-side value is deterministic.
QUALIFY_PACKS: Dict[str, Tuple[QualifyCase, ...]] = {
    "hostile": (
        QualifyCase(
            scenario="qualify-hetero-classes",
            failure_mode="heterogeneous-hardware",
            contracts=(
                ContractSpec(
                    name="hetero-f1-floor",
                    metric="f1",
                    op=">=",
                    bound=0.55,
                    description="detection quality holds across device classes",
                ),
                ContractSpec(
                    name="hetero-class-volume",
                    metric="n_windows",
                    op=">=",
                    bound=500,
                    description="every class contributes arrivals (volume floor)",
                ),
            ),
        ),
        QualifyCase(
            scenario="qualify-flash-crowd",
            failure_mode="flash-crowd-overload",
            contracts=(
                ContractSpec(
                    name="flash-f1-floor",
                    metric="f1",
                    op=">=",
                    bound=0.65,
                    description="quality holds through the 6x spike",
                ),
                ContractSpec(
                    name="flash-volume",
                    metric="n_windows",
                    op=">=",
                    bound=550,
                    description="the flash crowd actually multiplies arrivals",
                ),
            ),
        ),
        QualifyCase(
            scenario="qualify-tier-partition",
            failure_mode="tier-partition",
            kind="serve",
            contracts=(
                ContractSpec(
                    name="partition-slo",
                    metric="slo_met",
                    op="==",
                    bound=1,
                    description="served p99 stays within the SLO during the outage",
                ),
                ContractSpec(
                    name="partition-zero-drop",
                    metric="n_dropped",
                    op="==",
                    bound=0,
                    description="request conservation holds while the link is down",
                ),
                ContractSpec(
                    name="partition-failover",
                    metric="redirected_total",
                    op=">=",
                    bound=1,
                    description="cloud-bound traffic actually failed over",
                ),
                ContractSpec(
                    name="partition-retries",
                    metric="n_retries",
                    op=">=",
                    bound=1,
                    description="backoff retries were spent against the dead link",
                ),
            ),
        ),
        QualifyCase(
            scenario="qualify-correlated-drift",
            failure_mode="correlated-drift",
            contracts=(
                ContractSpec(
                    name="drift-recovery",
                    metric="recovery_ratio",
                    op=">=",
                    bound=1.0,
                    description="the final window climbs back to (or above) the trough",
                ),
                ContractSpec(
                    name="drift-final-floor",
                    metric="final_window_f1",
                    op=">=",
                    bound=0.55,
                    description="post-adaptation quality is serviceable",
                ),
            ),
        ),
        QualifyCase(
            scenario="qualify-sensor-faults",
            failure_mode="sensor-corruption",
            contracts=(
                ContractSpec(
                    name="sensor-f1-floor",
                    metric="f1",
                    op=">=",
                    bound=0.45,
                    description="corruption degrades quality boundedly, not to zero",
                ),
                ContractSpec(
                    name="sensor-dropout-bites",
                    metric="offline_device_ticks",
                    op=">=",
                    bound=1,
                    description="the dropout fault actually silences devices",
                ),
            ),
        ),
        QualifyCase(
            scenario="qualify-camouflage",
            failure_mode="adversarial-camouflage",
            contracts=(
                ContractSpec(
                    name="camouflage-f1-floor",
                    metric="f1",
                    op=">=",
                    bound=0.45,
                    description="camouflaged anomalies still get caught above floor",
                ),
                ContractSpec(
                    name="camouflage-recall-floor",
                    metric="recall",
                    op=">=",
                    bound=0.35,
                    description="the attack does not blind the detectors outright",
                ),
            ),
        ),
    ),
    "control": (
        QualifyCase(
            scenario="qualify-control-broken",
            failure_mode="control-must-fail",
            contracts=(
                ContractSpec(
                    name="control-impossible-f1",
                    metric="f1",
                    op=">=",
                    bound=1.5,
                    description="unsatisfiable by construction (F1 is bounded by 1)",
                ),
            ),
        ),
    ),
}


def get_pack(name: str) -> Tuple[QualifyCase, ...]:
    """The cases of one registered pack (unknown names raise)."""
    try:
        return QUALIFY_PACKS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown qualification pack {name!r}; available: "
            f"{sorted(QUALIFY_PACKS)}"
        ) from exc
