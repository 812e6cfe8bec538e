"""Tests for the fleet spec layer: validation, serialisation, overrides."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import apply_overrides, get_scenario
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
)
from repro.fleet.spec import MUTATOR_KINDS, FleetSpec, MutatorSpec


class TestMutatorSpec:
    def test_all_kinds_build(self):
        built = [MutatorSpec(kind=kind).build() for kind in MUTATOR_KINDS]
        assert [type(m) for m in built] == [
            ConceptDrift,
            AnomalyBurst,
            DeviceChurn,
            PhaseJitter,
            SensorStuck,
            SensorSpike,
            SensorDropout,
            CorrelatedDrift,
            AdversarialCamouflage,
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="mutator kind"):
            MutatorSpec(kind="time-warp")

    def test_parameters_flow_into_mutators(self):
        burst = MutatorSpec(
            kind="anomaly-burst", burst_period=10, burst_ticks=3, burst_anomaly_rate=0.9
        ).build()
        assert (burst.period, burst.burst_ticks, burst.burst_anomaly_rate) == (10, 3, 0.9)
        drift = MutatorSpec(kind="concept-drift", drift_per_tick=0.5).build()
        assert drift.drift_per_tick == 0.5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            MutatorSpec(kind="concept-drift", drift_per_tick=-1.0)
        with pytest.raises(ConfigurationError):
            MutatorSpec(kind="anomaly-burst", burst_anomaly_rate=1.5)
        with pytest.raises(ConfigurationError):
            MutatorSpec(kind="device-churn", offline_ticks=20, churn_period=10)

class TestFleetSpec:
    def test_defaults_valid(self):
        spec = FleetSpec()
        assert spec.n_devices == 100
        assert spec.mutators == ()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(n_devices=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(ticks=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(anomaly_rate=1.5)
        with pytest.raises(ConfigurationError):
            FleetSpec(n_devices=2, n_shards=3)

    def test_build_mutators_order(self):
        spec = FleetSpec(
            mutators=(
                MutatorSpec(kind="device-churn"),
                MutatorSpec(kind="phase-jitter"),
            )
        )
        assert [type(m) for m in spec.build_mutators()] == [DeviceChurn, PhaseJitter]


class TestExperimentSpecIntegration:
    def test_dotted_overrides_reach_fleet_fields(self):
        spec = get_scenario("fleet-burst-storm")
        overridden = apply_overrides(
            spec,
            {
                "fleet.n_devices": "32",
                "fleet.n_shards": "2",
                "fleet.mutators.0.burst_ticks": "2",
            },
        )
        assert overridden.fleet.n_devices == 32
        assert overridden.fleet.n_shards == 2
        assert overridden.fleet.mutators[0].burst_ticks == 2

    def test_unknown_fleet_key_rejected(self):
        spec = get_scenario("fleet-burst-storm")
        with pytest.raises(ConfigurationError, match="unknown key"):
            apply_overrides(spec, {"fleet.devices": "10"})

    def test_with_seed_keeps_fleet_spec(self):
        spec = get_scenario("fleet-1k-drift").with_seed(9)
        assert spec.seed == 9
        assert spec.fleet == get_scenario("fleet-1k-drift").fleet
