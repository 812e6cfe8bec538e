"""End-to-end tests of the univariate and multivariate paper tracks.

These are the integration tests: they exercise every subsystem together and
check the qualitative shape the paper reports (Table I/II trends), not its
absolute numbers.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.experiments.stages import TIERS

SCHEME_NAMES = {"IoT Device", "Edge", "Cloud", "Successive", "Our Method"}


class TestUnivariatePipeline:
    def test_all_schemes_evaluated(self, univariate_result):
        assert set(univariate_result.evaluations) == SCHEME_NAMES
        assert {row.scheme for row in univariate_result.table2_rows} == SCHEME_NAMES

    def test_table1_has_three_tiers(self, univariate_result):
        assert [row.tier for row in univariate_result.table1_rows] == list(TIERS)

    def test_execution_time_decreases_up_the_hierarchy(self, univariate_result):
        times = [row.execution_time_ms for row in univariate_result.table1_rows]
        assert times[0] > times[1] > times[2]

    def test_parameter_count_increases_up_the_hierarchy(self, univariate_result):
        params = [row.parameter_count for row in univariate_result.table1_rows]
        assert params[0] < params[1] < params[2]

    def test_delay_ordering_iot_edge_cloud(self, univariate_result):
        evaluations = univariate_result.evaluations
        assert (
            evaluations["IoT Device"].mean_delay_ms
            < evaluations["Edge"].mean_delay_ms
            < evaluations["Cloud"].mean_delay_ms
        )

    def test_successive_delay_between_iot_and_cloud(self, univariate_result):
        evaluations = univariate_result.evaluations
        assert (
            evaluations["IoT Device"].mean_delay_ms
            <= evaluations["Successive"].mean_delay_ms
            <= evaluations["Cloud"].mean_delay_ms
        )

    def test_adaptive_delay_below_cloud(self, univariate_result):
        evaluations = univariate_result.evaluations
        assert evaluations["Our Method"].mean_delay_ms < evaluations["Cloud"].mean_delay_ms

    def test_adaptive_accuracy_close_to_cloud(self, univariate_result):
        evaluations = univariate_result.evaluations
        assert evaluations["Our Method"].accuracy >= evaluations["Cloud"].accuracy - 0.05

    def test_adaptive_accuracy_at_least_iot(self, univariate_result):
        evaluations = univariate_result.evaluations
        assert evaluations["Our Method"].accuracy >= evaluations["IoT Device"].accuracy - 1e-9

    def test_adaptive_reward_is_best_or_near_best(self, univariate_result):
        evaluations = univariate_result.evaluations
        rewards = {
            name: evaluation.total_reward
            for name, evaluation in evaluations.items()
            if name != "Successive"
        }
        best = max(rewards.values())
        assert rewards["Our Method"] >= best - 1e-6 or rewards["Our Method"] == pytest.approx(best, rel=0.02)

    def test_cloud_most_accurate_fixed_scheme(self, univariate_result):
        evaluations = univariate_result.evaluations
        assert evaluations["Cloud"].accuracy >= evaluations["IoT Device"].accuracy

    def test_bandit_training_log_populated(self, univariate_result):
        log = univariate_result.bandit_log
        assert log.episodes > 0
        assert len(log.episode_mean_rewards) == log.episodes

    def test_policy_network_size_matches_paper_design(self, univariate_result):
        policy = univariate_result.policy
        assert policy.hidden_units == 100
        assert policy.n_actions == 3

    def test_demo_panel_present(self, univariate_result):
        panel = univariate_result.demo_panel
        assert panel is not None
        assert len(panel.predictions) == len(univariate_result.test_labels)

    def test_deployments_quantized_below_cloud(self, univariate_result):
        assert univariate_result.deployments[0].quantized
        assert univariate_result.deployments[1].quantized
        assert not univariate_result.deployments[2].quantized

    def test_summary_text(self, univariate_result):
        text = univariate_result.summary()
        for name in SCHEME_NAMES:
            assert name in text

    def test_evaluation_accessor(self, univariate_result):
        assert univariate_result.evaluation("Cloud").scheme_name == "Cloud"
        with pytest.raises(KeyError):
            univariate_result.evaluation("Fog")

    def test_reproducible_with_same_seed(self):
        spec = apply_overrides(get_scenario("univariate-power"), {
            "data.weeks": 12, "data.anomalous_day_fraction": 0.08, "data.seed": 3,
            "detectors.0.epochs": 10, "detectors.1.epochs": 10, "detectors.2.epochs": 10,
            "policy.episodes": 10,
        })
        a = ExperimentRunner(spec).run()
        b = ExperimentRunner(spec).run()
        np.testing.assert_array_equal(
            a.evaluations["Our Method"].predictions, b.evaluations["Our Method"].predictions
        )
        assert a.evaluations["Our Method"].total_reward == pytest.approx(
            b.evaluations["Our Method"].total_reward
        )

    def test_paper_scale_dimensions(self):
        spec = get_scenario("univariate-power-paper")
        assert spec.data.samples_per_day == 96
        assert spec.detectors[0].hidden_sizes == (201,)


class TestMultivariatePipeline:
    def test_all_schemes_evaluated(self, multivariate_result):
        assert set(multivariate_result.evaluations) == SCHEME_NAMES

    def test_table1_execution_times_match_calibration(self, multivariate_result):
        times = [row.execution_time_ms for row in multivariate_result.table1_rows]
        assert times == pytest.approx([591.0, 417.3, 232.3])

    def test_delay_ordering(self, multivariate_result):
        evaluations = multivariate_result.evaluations
        assert (
            evaluations["IoT Device"].mean_delay_ms
            < evaluations["Edge"].mean_delay_ms
            < evaluations["Cloud"].mean_delay_ms
        )

    def test_adaptive_accuracy_close_to_cloud(self, multivariate_result):
        evaluations = multivariate_result.evaluations
        assert evaluations["Our Method"].accuracy >= evaluations["Cloud"].accuracy - 0.05

    def test_context_comes_from_iot_encoder(self, multivariate_result):
        extractor = multivariate_result.context_extractor
        assert extractor.detector is multivariate_result.detectors["iot"]

    def test_policy_context_dim_matches_encoder(self, multivariate_result):
        assert multivariate_result.policy.context_dim == multivariate_result.detectors[
            "iot"
        ].units

    def test_all_detectors_fitted(self, multivariate_result):
        assert all(detector.fitted for detector in multivariate_result.detectors.values())

    def test_cloud_detector_is_bidirectional(self, multivariate_result):
        assert multivariate_result.detectors["cloud"].bidirectional

    def test_demo_panel_actions_within_layers(self, multivariate_result):
        panel = multivariate_result.demo_panel
        assert set(np.unique(panel.actions)).issubset({0, 1, 2})

    def test_paper_scale_dimensions(self):
        spec = get_scenario("multivariate-mhealth-paper")
        assert spec.data.window_size == 128
        assert spec.data.stride == 64
        assert [detector.units for detector in spec.detectors] == [50, 100, 200]
