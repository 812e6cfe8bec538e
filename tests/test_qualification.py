"""Tests for the scenario qualification matrix (`repro qualify`).

The hostile pack is the instrument-qualification contract of this repo: six
registered hostile/heterogeneous scenarios, each judged against pinned
pass/fail bounds, all deterministic under a fixed seed.  These tests pin the
pack's composition, the contract arithmetic, the contract<->alert agreement,
the report's JSON schema, and the CLI's exit-code contract.
"""

import json

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.experiments import get_scenario
from repro.fleet.qualify import (
    QUALIFY_PACKS,
    ContractSpec,
    QualificationReport,
    QualifyCase,
    QualifySpec,
    apply_qualify_overrides,
    get_pack,
    resolve_metric,
    run_qualification,
    scaled_case_spec,
)
from repro.obs.export import Telemetry

#: The failure modes the hostile pack must cover (pinned by the issue).
HOSTILE_SCENARIOS = (
    "qualify-hetero-classes",
    "qualify-flash-crowd",
    "qualify-tier-partition",
    "qualify-correlated-drift",
    "qualify-sensor-faults",
    "qualify-camouflage",
)


@pytest.fixture(scope="module")
def hostile_telemetry():
    return Telemetry(name="qualify-hostile-test")


@pytest.fixture(scope="module")
def hostile_report(hostile_telemetry):
    """One full hostile-pack run shared by the whole module."""
    return run_qualification(QualifySpec(pack="hostile"), telemetry=hostile_telemetry)


@pytest.fixture(scope="module")
def control_telemetry():
    return Telemetry(name="qualify-control-test")


@pytest.fixture(scope="module")
def control_report(control_telemetry):
    """The deliberately-broken control pack (must fail by construction)."""
    return run_qualification(QualifySpec(pack="control"), telemetry=control_telemetry)


# -- contract arithmetic ----------------------------------------------------------


class TestContractSpec:
    def test_ge_margin_and_verdict(self):
        contract = ContractSpec(name="floor", metric="f1", op=">=", bound=0.5)
        assert contract.holds(0.7) and contract.margin(0.7) == pytest.approx(0.2)
        assert not contract.holds(0.3) and contract.margin(0.3) == pytest.approx(-0.2)

    def test_le_margin_and_verdict(self):
        contract = ContractSpec(name="cap", metric="n_dropped", op="<=", bound=2)
        assert contract.holds(1) and contract.margin(1) == pytest.approx(1.0)
        assert not contract.holds(5) and contract.margin(5) == pytest.approx(-3.0)

    def test_eq_margin_is_never_positive(self):
        contract = ContractSpec(name="exact", metric="n_dropped", op="==", bound=0)
        assert contract.holds(0) and contract.margin(0) == 0.0
        assert not contract.holds(2) and contract.margin(2) == pytest.approx(-2.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(name="", metric="f1", op=">=", bound=0), "non-empty name"),
            (dict(name="x", metric="", op=">=", bound=0), "non-empty metric"),
            (dict(name="x", metric="f1", op="!=", bound=0), "op must be one of"),
            (dict(name="x", metric="f1", op=">=", bound="nan?"), "must be a number"),
        ],
    )
    def test_malformed_contracts_are_rejected(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            ContractSpec(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match=r"\['threshold'\] in contract"):
            ContractSpec.from_dict({"name": "x", "metric": "f1", "op": ">=", "threshold": 0})

    def test_case_rejects_duplicate_contract_names(self):
        contract = ContractSpec(name="same", metric="f1", op=">=", bound=0)
        with pytest.raises(ConfigurationError, match="duplicate contract names"):
            QualifyCase(
                scenario="s", failure_mode="m", contracts=(contract, contract)
            )

    def test_case_rejects_unknown_kind(self):
        contract = ContractSpec(name="c", metric="f1", op=">=", bound=0)
        with pytest.raises(ConfigurationError, match="kind must be one of"):
            QualifyCase(
                scenario="s", failure_mode="m", contracts=(contract,), kind="batch"
            )


# -- pack registry ----------------------------------------------------------------


class TestPacks:
    def test_hostile_pack_covers_the_pinned_failure_modes(self):
        assert tuple(c.scenario for c in get_pack("hostile")) == HOSTILE_SCENARIOS

    def test_every_pack_scenario_is_registered(self):
        for cases in QUALIFY_PACKS.values():
            for case in cases:
                spec = get_scenario(case.scenario)
                assert spec.fleet is not None
                if case.kind == "serve":
                    assert spec.serve is not None

    def test_unknown_pack_raises(self):
        with pytest.raises(ConfigurationError, match="unknown qualification pack"):
            get_pack("nope")

    def test_tier_partition_case_pins_the_outage_contracts(self):
        case = next(
            c for c in get_pack("hostile") if c.scenario == "qualify-tier-partition"
        )
        assert case.kind == "serve"
        pinned = {c.name: (c.metric, c.op, c.bound) for c in case.contracts}
        assert pinned["partition-slo"] == ("slo_met", "==", 1.0)
        assert pinned["partition-zero-drop"] == ("n_dropped", "==", 0.0)
        assert pinned["partition-failover"] == ("redirected_total", ">=", 1.0)
        assert pinned["partition-retries"] == ("n_retries", ">=", 1.0)


# -- qualify spec + overrides -----------------------------------------------------


class TestQualifySpec:
    def test_override_happy_path(self):
        spec = apply_qualify_overrides(
            QualifySpec(), {"qualify.ticks_scale": "0.5", "qualify.seed": "3"}
        )
        assert spec.ticks_scale == 0.5 and spec.seed == 3

    def test_non_qualify_key_is_rejected(self):
        with pytest.raises(ConfigurationError, match="qualify.<field>"):
            apply_qualify_overrides(QualifySpec(), {"fleet.ticks": "3"})

    def test_unknown_field_lists_valid_keys(self):
        with pytest.raises(ConfigurationError, match="qualify.ticks_scale"):
            apply_qualify_overrides(QualifySpec(), {"qualify.bogus": "1"})

    def test_non_positive_scale_is_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            QualifySpec(devices_scale=0.0)

    def test_ticks_scale_rescales_flash_and_fault_windows(self):
        flash = scaled_case_spec(
            get_scenario("qualify-flash-crowd"), QualifySpec(ticks_scale=0.5)
        )
        assert flash.fleet.ticks == 8
        assert flash.fleet.load_curve.flash_at_tick == 4
        assert flash.fleet.load_curve.flash_ticks == 1
        partition = scaled_case_spec(
            get_scenario("qualify-tier-partition"), QualifySpec(ticks_scale=0.5)
        )
        event = partition.faults.events[0]
        assert (event.at_tick, event.until_tick) == (2, 4)

    def test_requests_scale_shrinks_the_serving_stream(self):
        spec = scaled_case_spec(
            get_scenario("qualify-tier-partition"), QualifySpec(requests_scale=0.5)
        )
        assert spec.serve.max_requests == 96


# -- metric resolution ------------------------------------------------------------


def _tiny_fleet_report():
    from repro.fleet.report import (
        DelaySummary,
        FleetReport,
        TierUsage,
        WindowedMetrics,
    )

    delay = DelaySummary(
        mean_ms=10.0, p50_ms=8.0, p90_ms=20.0, p99_ms=40.0, max_ms=50.0,
        samples_seen=100, reservoir_size=256,
    )
    return FleetReport(
        name="tiny", n_devices=4, ticks=8, metrics_window=4, n_windows=100,
        n_anomalous=10, accuracy=0.9, precision=0.8, recall=0.5, f1=0.6,
        windowed=(
            WindowedMetrics(index=0, tick_start=0, n_windows=50, accuracy=0.9,
                            f1=0.4, anomaly_fraction=0.1, mean_delay_ms=10.0),
            WindowedMetrics(index=1, tick_start=4, n_windows=50, accuracy=0.9,
                            f1=0.8, anomaly_fraction=0.1, mean_delay_ms=10.0),
        ),
        tiers=(
            TierUsage(layer=0, tier="iot", requests=60, fraction=0.6,
                      mean_delay_ms=5.0, anomalies_reported=6, redirected=2),
            TierUsage(layer=1, tier="edge", requests=40, fraction=0.4,
                      mean_delay_ms=20.0, anomalies_reported=4, redirected=1),
        ),
        delay=delay, online_device_ticks=30, offline_device_ticks=2,
    )


class TestResolveMetric:
    def test_serve_contract_values_match_the_report_leaves(self, hostile_report):
        case = next(c for c in hostile_report.cases if c.kind == "serve")
        # slo_met/redirected_total are derived; n_dropped and n_retries walk
        # the report dict — all must carry real observed values.
        pinned = {c.metric: c.value for c in case.contracts}
        assert pinned["n_dropped"] == 0.0
        assert pinned["slo_met"] == 1.0

    def test_derived_fleet_metrics(self):
        report = _tiny_fleet_report()
        assert resolve_metric(report, "anomaly_fraction") == pytest.approx(0.1)
        assert resolve_metric(report, "redirected_total") == 3.0
        assert resolve_metric(report, "min_window_f1") == pytest.approx(0.4)
        assert resolve_metric(report, "final_window_f1") == pytest.approx(0.8)
        assert resolve_metric(report, "recovery_ratio") == pytest.approx(2.0)
        assert resolve_metric(report, "online_fraction") == pytest.approx(30 / 32)

    def test_dotted_path_reaches_nested_leaves(self):
        report = _tiny_fleet_report()
        assert resolve_metric(report, "f1") == pytest.approx(0.6)
        assert resolve_metric(report, "delay.p99_ms") == pytest.approx(40.0)
        assert resolve_metric(report, "tiers.1.redirected") == 1.0

    def test_unknown_metric_names_the_derived_set(self):
        with pytest.raises(ConfigurationError, match="derived metrics"):
            resolve_metric(_tiny_fleet_report(), "no_such_metric")

    def test_non_numeric_target_is_rejected(self):
        with pytest.raises(ConfigurationError, match="not a number"):
            resolve_metric(_tiny_fleet_report(), "name")


# -- the hostile pack -------------------------------------------------------------


class TestHostilePack:
    def test_every_contract_passes(self, hostile_report):
        assert hostile_report.passed
        assert hostile_report.n_failed == 0
        assert hostile_report.failed_contracts() == []
        assert hostile_report.n_contracts == sum(
            len(c.contracts) for c in get_pack("hostile")
        )

    def test_pack_is_deterministic_under_the_fixed_seed(self, hostile_report):
        again = run_qualification(QualifySpec(pack="hostile"))
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            hostile_report.to_dict(), sort_keys=True
        )

    def test_tier_partition_holds_slo_with_zero_drops_during_outage(
        self, hostile_report
    ):
        case = next(
            c for c in hostile_report.cases if c.scenario == "qualify-tier-partition"
        )
        assert case.passed
        observed = {c.name: c for c in case.contracts}
        assert observed["partition-slo"].value == 1.0
        assert observed["partition-zero-drop"].value == 0.0
        assert observed["partition-failover"].value >= 1.0
        assert observed["partition-retries"].value >= 1.0

    def test_passing_contracts_fire_no_contract_alerts(self, hostile_report):
        for case in hostile_report.cases:
            assert not [a for a in case.alerts if a.startswith("contract:")]

    def test_margins_are_non_negative_exactly_when_passing(self, hostile_report):
        for case in hostile_report.cases:
            for contract in case.contracts:
                assert contract.passed == (contract.margin >= 0.0)


# -- contract <-> alert agreement -------------------------------------------------


class TestAlertAgreement:
    def test_control_pack_fails_with_the_named_contract(self, control_report):
        assert not control_report.passed
        assert control_report.failed_contracts() == [
            "qualify-control-broken:control-impossible-f1"
        ]

    def test_breached_contracts_and_fired_alerts_agree(self, control_report):
        case = control_report.cases[0]
        failed = {
            f"contract:{case.scenario}:{c.name}"
            for c in case.contracts
            if not c.passed
        }
        fired = {a for a in case.alerts if a.startswith("contract:")}
        assert failed == fired != set()

    def test_breaches_emit_alert_fire_trace_events(self, control_telemetry):
        fired = {
            record["alert"]
            for record in control_telemetry.events
            if record.get("name") == "alert.fire"
        }
        assert "contract:qualify-control-broken:control-impossible-f1" in fired

    def test_hostile_run_emits_no_contract_alert_events(self, hostile_telemetry):
        contract_fires = [
            record
            for record in hostile_telemetry.events
            if record.get("name") == "alert.fire"
            and str(record.get("alert", "")).startswith("contract:")
        ]
        assert contract_fires == []


# -- report schema and round-trip -------------------------------------------------


class TestReportSchema:
    """``QualificationReport.from_dict`` is the report's schema check."""

    def test_report_payload_validates(self, hostile_report, control_report):
        for report in (hostile_report, control_report):
            assert QualificationReport.from_dict(report.to_dict()) == report

    def test_missing_key_fails_validation(self, hostile_report):
        payload = hostile_report.to_dict()
        del payload["cases"]
        with pytest.raises(ConfigurationError, match="missing required key"):
            QualificationReport.from_dict(payload)

    @pytest.mark.parametrize(
        "path",
        [("schema_version",), ("cases", 0, "alerts"), ("cases", 0, "contracts", 0, "description")],
    )
    def test_every_schema_key_is_required(self, hostile_report, path):
        payload = hostile_report.to_dict()
        node = payload
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        with pytest.raises(ConfigurationError, match=f"missing required key '{path[-1]}'"):
            QualificationReport.from_dict(payload)

    def test_type_mismatch_fails_validation(self, hostile_report):
        payload = hostile_report.to_dict()
        payload["passed"] = "yes"
        with pytest.raises(ConfigurationError, match="expected boolean"):
            QualificationReport.from_dict(payload)

    def test_nested_contract_mismatch_names_the_path(self, hostile_report):
        payload = hostile_report.to_dict()
        payload["cases"][0]["contracts"][0]["bound"] = "tight"
        with pytest.raises(ConfigurationError, match=r"cases\.0\.contracts\.0\.bound"):
            QualificationReport.from_dict(payload)

    def test_json_round_trip(self, hostile_report, tmp_path):
        path = hostile_report.to_json(tmp_path / "qualify.json")
        assert QualificationReport.from_dict(json.loads(path.read_text())) == hostile_report
        assert QualificationReport.from_json(path) == hostile_report

    def test_summary_names_every_contract(self, hostile_report):
        text = hostile_report.summary()
        for case in get_pack("hostile"):
            assert case.scenario in text
            for contract in case.contracts:
                assert contract.name in text


# -- CLI --------------------------------------------------------------------------


class TestQualifyCli:
    def test_single_scenario_run_exits_zero_and_writes_report(
        self, tmp_path, capsys
    ):
        assert main([
            "qualify", "--scenario", "qualify-control-broken", "--pack", "control",
            "--output-dir", str(tmp_path), "--quiet",
        ]) == 1
        payload = json.loads((tmp_path / "qualify_control.json").read_text())
        assert QualificationReport.from_dict(payload).passed is False
        capsys.readouterr()

    def test_control_pack_exits_one(self, capsys):
        assert main(["qualify", "--pack", "control", "--quiet"]) == 1
        capsys.readouterr()
