"""Tests for the registered fleet scenarios and the ``repro fleet`` CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import SCENARIOS, get_scenario

#: Every registered fleet scenario and the mutator kinds it must exercise.
FLEET_SCENARIOS = {
    "fleet-1k-drift": {"concept-drift"},
    "fleet-burst-storm": {"anomaly-burst"},
    "fleet-churn-mixed-detectors": {"device-churn", "phase-jitter"},
}

#: CLI overrides shrinking a fleet scenario to smoke-test size.
TINY_SETS = [
    "--set", "data.weeks=8",
    "--set", "detectors.0.epochs=2",
    "--set", "detectors.1.epochs=2",
    "--set", "detectors.2.epochs=2",
    "--set", "policy.episodes=2",
    "--set", "fleet.n_devices=8",
    "--set", "fleet.ticks=6",
    "--set", "fleet.metrics_window=3",
]


class TestRegisteredFleetScenarios:
    def test_at_least_three_fleet_scenarios(self):
        assert len(SCENARIOS.names(tags=("fleet",))) >= 3

    @pytest.mark.parametrize("name", sorted(FLEET_SCENARIOS))
    def test_scenario_has_fleet_node_with_expected_mutators(self, name):
        spec = get_scenario(name)
        assert spec.fleet is not None
        kinds = {mutator.kind for mutator in spec.fleet.mutators}
        assert kinds == FLEET_SCENARIOS[name]

    def test_drift_scenario_is_thousand_devices(self):
        assert get_scenario("fleet-1k-drift").fleet.n_devices == 1000

    @pytest.mark.parametrize("name", sorted(FLEET_SCENARIOS))
    def test_scenarios_listed_with_fleet_tag(self, name):
        assert "fleet" in SCENARIOS.entry(name).tags


class TestFleetCommand:
    def test_parser_accepts_fleet_options(self):
        args = build_parser().parse_args(
            ["fleet", "fleet-burst-storm", "--seed", "4", "--shards", "2",
             "--set", "fleet.ticks=6"]
        )
        assert args.command == "fleet"
        assert args.scenario == "fleet-burst-storm"
        assert args.seed == 4
        assert args.shards == 2
        assert args.overrides == ["fleet.ticks=6"]

    def test_spec_only_resolves_seed_and_shards(self, capsys):
        assert main([
            "fleet", "fleet-burst-storm", "--seed", "5", "--shards", "2", "--spec-only",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 5
        assert payload["data"]["seed"] == 12  # legacy power offset follows the seed
        assert payload["fleet"]["n_shards"] == 2

    def test_non_fleet_scenario_exits_2_with_hint(self, capsys):
        assert main(["fleet", "univariate-power"]) == 2
        err = capsys.readouterr().err
        assert "no fleet workload" in err
        assert "fleet-burst-storm" in err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["fleet", "not-a-fleet"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_fleet_run_writes_report(self, tmp_path, capsys):
        exit_code = main(
            ["fleet", "fleet-burst-storm", *TINY_SETS, "--output-dir", str(tmp_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Fleet report for fleet-burst-storm" in out
        path = tmp_path / "fleet_fleet-burst-storm.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["n_windows"] > 0
        assert [tier["tier"] for tier in payload["tiers"]] == ["iot", "edge", "cloud"]

    def test_fleet_run_sharded_quiet(self, tmp_path, capsys):
        exit_code = main([
            "fleet", "fleet-burst-storm", *TINY_SETS,
            "--shards", "2", "--quiet", "--output-dir", str(tmp_path),
        ])
        assert exit_code == 0
        assert "Fleet report" not in capsys.readouterr().out
        assert (tmp_path / "fleet_fleet-burst-storm.json").exists()

    def test_seed_changes_the_stream(self, capsys):
        reports = []
        for seed in ("1", "2"):
            assert main(["fleet", "fleet-burst-storm", *TINY_SETS, "--seed", seed]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] != reports[1]


class TestListVerbose:
    def test_verbose_lists_descriptions_and_workloads(self, capsys):
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        for name in FLEET_SCENARIOS:
            assert name in out
        # Descriptions and fleet workload summaries appear in verbose mode.
        assert "Univariate power track" in out
        assert "fleet=1000 devices x 40 ticks" in out
        assert "source=power" in out

    def test_plain_list_unchanged(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fleet-burst-storm" in out
        assert "fleet=" not in out  # workload summary is verbose-only


class TestFleetProfileFlag:
    """Satellite: ``repro fleet --profile`` prints the per-stage breakdown."""

    @staticmethod
    def _check_breakdown(out, telemetry_dir):
        """The printed shape, and the registry invariants behind it."""
        from repro.fleet.engine import STAGES
        from repro.obs.metrics import MetricsRegistry

        assert "per-stage wall-clock breakdown:" in out
        for label in ("arrivals (", "context + policy (", "detect (", "metrics (",
                      "adapt (", "other (", "  total ", "  throughput: "):
            assert label in out
        assert "windows/s" in out
        registry = MetricsRegistry.from_payload(
            json.loads((telemetry_dir / "metrics.json").read_text())
        )
        stages = registry.get("fleet_stage_seconds_total")
        assert {key[0] for key in stages._children} == set(STAGES)
        assert sum(stages.value(stage=stage) for stage in STAGES) <= registry.get(
            "fleet_run_seconds_total"
        ).value()

    def test_profile_prints_stage_breakdown(self, tmp_path, capsys):
        assert main([
            "fleet", "fleet-burst-storm", *TINY_SETS, "--profile",
            "--telemetry", str(tmp_path),
        ]) == 0
        self._check_breakdown(capsys.readouterr().out, tmp_path)

    def test_profile_with_shards_profiles_the_forked_run(
        self, tmp_path, capsys, monkeypatch
    ):
        """--profile no longer changes how shards execute: they still fork."""
        from repro.fleet import sharding

        pooled = []
        run_pooled = sharding.run_pooled
        monkeypatch.setattr(sharding, "available_cpus", lambda: 2)
        monkeypatch.setattr(
            sharding,
            "run_pooled",
            lambda payloads: pooled.append(len(payloads)) or run_pooled(payloads),
        )
        assert main([
            "fleet", "fleet-burst-storm", *TINY_SETS, "--shards", "2", "--profile",
            "--telemetry", str(tmp_path),
        ]) == 0
        assert pooled == [2]
        self._check_breakdown(capsys.readouterr().out, tmp_path)

    def test_profile_parses_with_shards(self):
        args = build_parser().parse_args(
            ["fleet", "fleet-burst-storm", "--shards", "2", "--profile"]
        )
        assert args.profile
        assert args.shards == 2

    def test_profile_prints_even_when_quiet(self, capsys):
        """--quiet suppresses the report, not the explicitly requested profile."""
        assert main(
            ["fleet", "fleet-burst-storm", *TINY_SETS, "--profile", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "per-stage wall-clock breakdown" in out
        assert "Fleet report" not in out

    def test_registry_message_prints_without_profile(self, tmp_path, capsys):
        """The registry location prints with the summary, --profile or not."""
        assert main([
            "fleet", "fleet-burst-storm", *TINY_SETS, "--adapt",
            "--registry", str(tmp_path / "registry"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Model registry:" in out
        assert "per-stage wall-clock breakdown" not in out
