"""Tests for the stage-based experiment runner.

Covers individual stage invocation and the two scenarios beyond the paper's
shape (4-tier topology, mixed detector families).
"""

import numpy as np
import pytest

from repro.detectors.lstm_seq2seq import Seq2SeqDetector
from repro.evaluation.metrics import accuracy_score, f1_score
from repro.exceptions import ConfigurationError
from repro.experiments import SCENARIOS, ExperimentRunner, apply_overrides, get_scenario


class TestStageInvocation:
    def test_stages_require_prerequisites(self):
        runner = ExperimentRunner(get_scenario("univariate-power"))
        with pytest.raises(ConfigurationError, match="prepare_data"):
            runner.fit_detectors()
        with pytest.raises(ConfigurationError, match="must run before"):
            runner.evaluate()

    def test_individual_stage_calls(self):
        spec = apply_overrides(
            get_scenario("univariate-power").with_seed(1),
            {"data.weeks": "10", "policy.episodes": "3",
             "detectors.0.epochs": "2", "detectors.1.epochs": "2",
             "detectors.2.epochs": "2"},
        )
        runner = ExperimentRunner(spec)
        runner.prepare_data()
        assert runner.state.train_windows is not None
        assert runner.state.test_labels is not None
        runner.fit_detectors()
        assert len(runner.state.detectors) == 3
        assert all(d.fitted for d in runner.state.detectors)
        runner.deploy()
        assert runner.state.system.n_layers == 3
        runner.train_policy()
        assert runner.state.policy.n_actions == 3
        result = runner.evaluate()
        assert result is runner.state.result
        # run() after all stages is a no-op returning the same result.
        assert runner.run() is result
        assert result.dataset_name == "univariate"
        assert list(result.detectors) == ["iot", "edge", "cloud"]
        assert [row.tier for row in result.table1_rows] == ["iot", "edge", "cloud"]
        assert result.demo_panel is not None


def _smoke(spec):
    """``spec`` shrunk to a sub-second offline run."""
    overrides = {"policy.episodes": 1}
    if spec.data.source == "power":
        overrides.update({"data.weeks": 16, "data.samples_per_day": 24})
    else:
        overrides.update({"data.n_subjects": 2, "data.window_size": 32, "data.stride": 16})
    for index, detector in enumerate(spec.detectors):
        overrides[f"detectors.{index}.epochs"] = 1
        if detector.family == "seq2seq":
            overrides[f"detectors.{index}.units"] = 4 + 2 * index
    return apply_overrides(spec, overrides)


class TestTable1IsAViewOfTheFixedLayerSchemes:
    """Table I read off the fixed-layer evaluations ≡ each detector's own
    ``predict`` over the test set, the way Table I used to be computed."""

    @pytest.mark.parametrize("name", SCENARIOS.names())
    def test_rows_equal_the_detectors_own_predictions(self, name):
        runner = ExperimentRunner(_smoke(get_scenario(name)))
        result = runner.run()
        state = runner.state
        assert [row.tier for row in result.table1_rows] == list(runner.tier_names)
        for layer, row in enumerate(result.table1_rows):
            detector = state.detectors[layer]
            predictions = detector.predict(state.test_windows)
            assert (row.model_name, row.parameter_count) == (
                detector.name, detector.parameter_count()
            )
            assert row.accuracy == accuracy_score(predictions, state.test_labels)
            assert row.f1 == f1_score(predictions, state.test_labels)
            assert row.execution_time_ms == state.deployments[layer].execution_time_ms

    def test_a_redirected_fixed_layer_evaluation_raises(self):
        runner = ExperimentRunner(_smoke(get_scenario("univariate-power")))
        for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
            getattr(runner, stage)()
        # Fail the cloud uplink for every scheme run: "Cloud" is served below it.
        system = runner.state.system
        reset = system.reset

        def reset_with_cloud_down():
            reset()
            system.topology.links_to(2)[-1].set_status("down")

        system.reset = reset_with_cloud_down
        with pytest.raises(ValueError, match="'Cloud' was also served at layers \\[1\\]"):
            runner.evaluate()


class TestFourTierScenario:
    """K = 4: one more tier than the paper's testbed."""

    @pytest.fixture(scope="class")
    def result(self, four_tier_result):
        return four_tier_result

    def test_four_layers_deployed(self, result):
        assert len(result.deployments) == 4
        assert result.system.n_layers == 4

    def test_policy_has_four_actions(self, result):
        assert result.policy.n_actions == 4

    def test_table1_uses_custom_tier_names(self, result):
        assert [row.tier for row in result.table1_rows] == [
            "sensor", "gateway", "edge", "cloud"
        ]

    def test_fixed_schemes_named_after_tiers(self, result):
        assert set(result.evaluations) == {
            "Always sensor", "Always gateway", "Always edge", "Always cloud",
            "Successive", "Our Method",
        }

    def test_quantized_below_layer_two(self, result):
        assert [d.quantized for d in result.deployments] == [True, True, False, False]

    def test_delay_increases_up_the_hierarchy(self, result):
        delays = [
            result.evaluations[name].mean_delay_ms
            for name in ("Always sensor", "Always gateway", "Always edge", "Always cloud")
        ]
        assert delays == sorted(delays)


class TestMixedDetectorScenario:
    """Mixed detector families across the tiers of one deployment."""

    @pytest.fixture(scope="class")
    def result(self, mixed_result):
        return mixed_result

    def test_families_mixed(self, result):
        names = [row.model_name for row in result.table1_rows]
        assert names[0].startswith("AE-")
        assert names[1].startswith("AE-")
        assert "seq2seq" in names[2]

    def test_cloud_detector_reads_univariate_windows_as_one_channel(self, result):
        cloud = result.detectors["cloud"]
        assert isinstance(cloud, Seq2SeqDetector)
        assert (cloud.name, cloud.n_channels, cloud.bidirectional) == (
            "BiLSTM-seq2seq-Cloud", 1, True
        )
        assert cloud.fitted

    def test_all_schemes_evaluated(self, result):
        assert set(result.evaluations) == {
            "IoT Device", "Edge", "Cloud", "Successive", "Our Method"
        }

    def test_cloud_predictions_equal_those_on_the_channel_layout(self, result):
        cloud = result.detectors["cloud"]
        windows = result.test_windows
        np.testing.assert_array_equal(
            cloud.predict(windows), cloud.predict(windows[:, :, None])
        )


class TestDetectorBuilding:
    """Tier architecture defaults survive custom names (regression)."""

    def test_named_seq2seq_inherits_tier_architecture(self):
        from repro.experiments.runner import _build_detector
        from repro.experiments import DetectorSpec

        spec = DetectorSpec(family="seq2seq", units=8, name="My-Cloud")
        detector = _build_detector(spec, tier="cloud", window_shape=(16, 3), seed=0)
        assert detector.name == "My-Cloud"
        assert detector.bidirectional is True  # cloud tier default

    def test_custom_tier_seq2seq_needs_units(self):
        from repro.experiments.runner import _build_detector
        from repro.experiments import DetectorSpec

        with pytest.raises(ConfigurationError, match="explicit units"):
            _build_detector(DetectorSpec(family="seq2seq"), tier="fog",
                            window_shape=(16, 3), seed=0)

    def test_custom_tier_seq2seq_is_unidirectional_and_single_bias(self):
        from repro.experiments.runner import _build_detector
        from repro.experiments import DetectorSpec

        detector = _build_detector(DetectorSpec(family="seq2seq", units=5), tier="fog",
                                   window_shape=(16, 3), seed=0)
        assert (detector.name, detector.units, detector.bidirectional) == (
            "seq2seq-fog", 5, False
        )
        assert not detector.model.encoder.double_bias

    def test_custom_tier_autoencoder_needs_hidden_sizes(self):
        from repro.experiments.runner import _build_detector
        from repro.experiments import DetectorSpec

        with pytest.raises(ConfigurationError, match="explicit hidden_sizes"):
            _build_detector(DetectorSpec(), tier="fog", window_shape=(16,), seed=0)
        detector = _build_detector(DetectorSpec(hidden_sizes=(4,)), tier="fog",
                                   window_shape=(16,), seed=0)
        assert (detector.name, detector.hidden_sizes) == ("AE-fog", (4,))

    def test_named_autoencoder_keeps_the_tier_architecture(self):
        from repro.experiments.runner import _build_detector
        from repro.experiments import DetectorSpec

        detector = _build_detector(DetectorSpec(name="My-Edge"), tier="edge",
                                   window_shape=(16,), seed=0)
        assert (detector.name, detector.hidden_sizes) == ("My-Edge", (512, 256, 512))

    @pytest.mark.parametrize(
        "family, window_shape, size",
        [("autoencoder", (16,), 16), ("autoencoder", (8, 3), 24),
         ("seq2seq", (16,), 1), ("seq2seq", (8, 3), 3)],
    )
    def test_the_window_shape_sets_the_input_size(self, family, window_shape, size):
        from repro.experiments.runner import _build_detector
        from repro.experiments import DetectorSpec

        spec = DetectorSpec(family=family, hidden_sizes=(4,), units=4)
        detector = _build_detector(spec, tier="iot", window_shape=window_shape, seed=0)
        got = detector.window_size if family == "autoencoder" else detector.n_channels
        assert got == size
