"""End-to-end tests: the drift-recovery scenario, engine hooks and CLI.

The acceptance pins live here:

* ``adapt-1k-drift-recovery`` (shrunken) demonstrates recovery — windowed F1
  after the gated hot-swap is strictly above the post-drift trough and within
  10% of the pre-drift level, deterministically under a fixed seed, with the
  swap visible in the report;
* with adaptation disabled the engine's streaming loop is unchanged — the
  frozen run and the adaptive run produce identical windowed metrics up to
  the first swap, and a no-adapt report carries ``adaptation=None`` and stays
  equal across engines (the PR 3 bit-identical contract).
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    SCENARIOS,
    ExperimentRunner,
    apply_overrides,
    get_scenario,
)
from repro.cli import main
from repro.fleet.engine import FleetEngine
from repro.fleet.report import FleetReport

#: Shrink the drift-recovery scenario to test size (training and streaming).
TINY = {
    "data.weeks": "12",
    "detectors.0.epochs": "3",
    "detectors.1.epochs": "3",
    "detectors.2.epochs": "3",
    "policy.episodes": "3",
    "fleet.n_devices": "64",
    "fleet.arrival_rate": "1.0",
    "adapt.min_retrain_windows": "32",
}


@pytest.fixture(scope="module")
def tiny_spec():
    return apply_overrides(get_scenario("adapt-1k-drift-recovery"), TINY)


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("registry"))


@pytest.fixture(scope="module")
def adaptive_report(tiny_spec, registry_root):
    return ExperimentRunner(tiny_spec).run_fleet(registry_root=registry_root)


class TestDriftRecoveryScenario:
    def test_swap_visible_in_report(self, adaptive_report):
        timeline = adaptive_report.adaptation
        assert timeline is not None
        assert len(timeline.swaps) >= 1
        assert len(timeline.drifts) >= 1
        assert all(r.accepted == (r.candidate_version is not None)
                   for r in timeline.retrains)

    def test_recovery_contract(self, adaptive_report):
        f1 = [w.f1 for w in adaptive_report.windowed if w.n_windows]
        pre_drift, trough, post = f1[0], min(f1), f1[-1]
        assert post > trough, "post-swap F1 must strictly exceed the trough"
        assert post >= 0.9 * pre_drift, (
            f"post-swap F1 {post:.3f} not within 10% of pre-drift {pre_drift:.3f}"
        )

    def test_deterministic_under_fixed_seed(self, tiny_spec, adaptive_report, registry_root):
        """A rerun against the registry the first run left behind starts from
        its own roots and reports the same, swaps and versions included."""
        again = ExperimentRunner(tiny_spec).run_fleet(registry_root=registry_root)
        assert again == adaptive_report

    def test_report_json_round_trip_with_timeline(self, adaptive_report, tmp_path):
        path = adaptive_report.to_json(tmp_path / "report.json")
        assert FleetReport.from_json(path) == adaptive_report

    def test_quantized_tiers_swap_fp16(self, adaptive_report):
        swaps = adaptive_report.adaptation.swaps
        for swap in swaps:
            if swap.tier in ("iot", "edge"):
                assert swap.quantized
            else:
                assert not swap.quantized


class TestDisabledAdaptationBitIdentical:
    """The PR 3 contract: no controller => the streaming loop is unchanged."""

    @pytest.fixture(scope="class")
    def frozen_spec(self, tiny_spec):
        return replace(tiny_spec, adapt=None)

    def test_no_adapt_report_has_no_timeline(self, frozen_spec):
        report = ExperimentRunner(frozen_spec).run_fleet()
        assert report.adaptation is None

    def test_engines_agree_without_controller(self, frozen_spec):
        runner = ExperimentRunner(frozen_spec)
        for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
            getattr(runner, stage)()
        from repro.fleet.devices import WindowPool

        state = runner.state
        kwargs = dict(
            system=state.system,
            policy=state.policy,
            context_extractor=state.context_extractor,
            spec=frozen_spec.fleet,
            pool=WindowPool.from_labeled(state.standardized_all),
            master_seed=frozen_spec.seed,
            name=frozen_spec.name,
            tier_names=frozen_spec.topology.tier_names,
        )
        one_shard = FleetEngine(**kwargs).run()
        two_shards = FleetEngine(
            **{**kwargs, "spec": replace(frozen_spec.fleet, n_shards=2)}
        ).run()
        explicit_none = FleetEngine(**kwargs, controller=None).run()
        assert one_shard == two_shards == explicit_none
        assert one_shard.adaptation is None

    def test_stream_identical_until_first_swap(self, frozen_spec, adaptive_report):
        """Observation never perturbs the stream: pre-swap blocks match."""
        frozen_report = ExperimentRunner(frozen_spec).run_fleet()
        first_swap_tick = min(s.tick for s in adaptive_report.adaptation.swaps)
        metrics_window = frozen_report.metrics_window
        for frozen_block, adaptive_block in zip(
            frozen_report.windowed, adaptive_report.windowed
        ):
            if frozen_block.tick_start + metrics_window > first_swap_tick:
                break
            assert frozen_block == adaptive_block

    def test_sharded_adaptive_run_warns_about_downgrade(self, frozen_spec):
        """--shards on an adaptive run silently changing semantics is not OK:
        the in-process downgrade must be surfaced as a RuntimeWarning."""
        runner = ExperimentRunner(frozen_spec)
        for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
            getattr(runner, stage)()
        from repro.fleet.devices import WindowPool

        class _NullController:
            def observe_batch(self, *args, **kwargs):
                pass

            def end_tick(self, tick):
                pass

            def timeline(self):
                from repro.adapt.events import AdaptationTimeline

                return AdaptationTimeline()

        state = runner.state
        engine = FleetEngine(
            system=state.system,
            policy=state.policy,
            context_extractor=state.context_extractor,
            spec=replace(frozen_spec.fleet, n_shards=2),
            pool=WindowPool.from_labeled(state.standardized_all),
            master_seed=frozen_spec.seed,
            name=frozen_spec.name,
            tier_names=frozen_spec.topology.tier_names,
            controller=_NullController(),
        )
        with pytest.warns(RuntimeWarning, match="tick-synchronous"):
            engine.run()

    def test_legacy_payload_without_adaptation_key_loads(self, frozen_spec):
        report = ExperimentRunner(frozen_spec).run_fleet()
        payload = report.to_dict()
        del payload["adaptation"]  # a PR 3 report on disk has no such key
        assert FleetReport.from_dict(payload) == report


class TestScenarioRegistryDescribe:
    def test_describe_includes_fleet_and_adapt_nodes(self):
        described = SCENARIOS.describe("adapt-1k-drift-recovery")
        assert described["fleet"]["n_devices"] == 1000
        assert described["adapt"]["monitors"] == ["page-hinkley", "f1-floor"]
        assert described["spec"]["adapt"]["retrain_epochs"] == 6

    def test_describe_offline_scenario_marks_nodes_absent(self):
        described = SCENARIOS.describe("univariate-power")
        assert described["fleet"] is None
        assert described["adapt"] is None
        assert described["name"] == "univariate-power"
        assert described["tags"]

    def test_fleet_scenario_has_fleet_but_no_adapt(self):
        described = SCENARIOS.describe("fleet-1k-drift")
        assert described["fleet"] is not None
        assert described["adapt"] is None


class TestCli:
    def test_describe_prints_fleet_and_adapt_summaries(self, capsys):
        assert main(["describe", "adapt-1k-drift-recovery"]) == 0
        out = capsys.readouterr().out
        assert "Fleet: 1000 devices x 48 ticks" in out
        assert "Adapt: monitors page-hinkley, f1-floor" in out
        assert '"adapt"' in out  # full spec dump includes the node

    def test_list_verbose_mentions_adapt(self, capsys):
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "adapt=page-hinkley/f1-floor" in out

    def test_fleet_adapt_flag_attaches_default_spec(self, capsys):
        assert main([
            "fleet", "fleet-burst-storm", "--adapt", "--spec-only",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["adapt"]["monitors"] == ["page-hinkley", "f1-floor"]

    def test_fleet_adapt_flag_allows_adapt_overrides(self, capsys):
        """--set adapt.* must land on the node --adapt attaches (order bug)."""
        assert main([
            "fleet", "fleet-burst-storm", "--adapt",
            "--set", "adapt.retrain_epochs=9", "--spec-only",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["adapt"]["retrain_epochs"] == 9

    def test_fleet_without_adapt_flag_keeps_node_null(self, capsys):
        assert main(["fleet", "fleet-burst-storm", "--spec-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["adapt"] is None

    def test_models_lifecycle_commands(self, tmp_path, capsys):
        """repro models list/show/rollback over a registry built in-process."""
        from repro.adapt.registry import ModelRegistry
        from repro.detectors.autoencoder import AutoencoderDetector

        registry = ModelRegistry(tmp_path / "registry")
        rng = np.random.default_rng(0)
        detector = AutoencoderDetector(window_size=12, hidden_sizes=(4,), seed=0)
        detector.fit(rng.normal(size=(16, 12)), epochs=2, batch_size=8)
        root = registry.commit(detector, tier="iot", layer=0)
        detector.fit(rng.normal(size=(16, 12)) + 0.5, epochs=1, batch_size=8)
        child = registry.commit(detector, tier="iot", layer=0, parent=root.version)
        registry.promote(root.version, "iot")
        registry.promote(child.version, "iot")

        assert main(["models", "list", "--registry", str(tmp_path / "registry")]) == 0
        out = capsys.readouterr().out
        assert root.version in out and child.version in out
        assert f"* {child.version}" in out

        assert main([
            "models", "show", child.version, "--registry", str(tmp_path / "registry"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parent"] == root.version

        assert main([
            "models", "rollback", "iot", "--registry", str(tmp_path / "registry"),
        ]) == 0
        assert root.version in capsys.readouterr().out
        assert registry.current("iot") == root.version

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda meta: {k: v for k, v in meta.items() if k != "tier"}, "model_version"),
            (lambda meta: {**meta, "bogus": 1}, "model_version"),
            (lambda meta: {**meta, "layer": "zero"}, "model_version.layer"),
            (None, "meta.json"),
        ],
        ids=["missing-key", "unknown-key", "wrong-type", "truncated"],
    )
    @pytest.mark.parametrize("command", ["show", "list"])
    def test_models_on_damaged_meta_exit_2(self, damage, named, command, tmp_path, capsys):
        from repro.adapt.registry import ModelRegistry
        from repro.detectors.autoencoder import AutoencoderDetector

        registry = ModelRegistry(tmp_path / "registry")
        detector = AutoencoderDetector(window_size=12, hidden_sizes=(4,), seed=0)
        detector.fit(np.random.default_rng(0).normal(size=(16, 12)), epochs=1)
        meta = registry.commit(detector, tier="iot", layer=0)
        meta_path = tmp_path / "registry" / "versions" / meta.version / "meta.json"
        text = meta_path.read_text()
        meta_path.write_text(text[:20] if damage is None else json.dumps(damage(json.loads(text))))
        target = [meta.version] if command == "show" else []
        assert main(["models", command, *target, "--registry", str(tmp_path / "registry")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_models_on_missing_registry_exits_nonzero(self, tmp_path, capsys):
        """A mistyped --registry path must error, not conjure an empty registry."""
        missing = tmp_path / "no-such-registry"
        assert main(["models", "list", "--registry", str(missing)]) == 2
        assert "no model registry" in capsys.readouterr().err
        assert not missing.exists()

    def test_models_rollback_past_root_exits_nonzero(self, tmp_path, capsys):
        from repro.adapt.registry import ModelRegistry
        from repro.detectors.autoencoder import AutoencoderDetector

        registry = ModelRegistry(tmp_path / "registry")
        detector = AutoencoderDetector(window_size=12, hidden_sizes=(4,), seed=0)
        detector.fit(np.random.default_rng(0).normal(size=(16, 12)), epochs=1)
        meta = registry.commit(detector, tier="iot", layer=0)
        registry.promote(meta.version, "iot")
        assert main([
            "models", "rollback", "iot", "--registry", str(tmp_path / "registry"),
        ]) == 2
        assert "root version" in capsys.readouterr().err


class TestAdaptiveRunGolden:
    """The adaptive run is pinned to the report the per-window loop recorded."""

    def test_report_and_timeline_match_golden(self, adaptive_report, golden):
        # The pin is only interesting if the loop actually acted.
        assert len(adaptive_report.adaptation.swaps) >= 1
        assert len(adaptive_report.adaptation.drifts) >= 1
        golden("fleet/report-adapt-1k-drift-recovery.json", adaptive_report.to_dict())
