"""Tests for detection metrics, scheme evaluation, tables and the demo-panel figures."""

import numpy as np
import pytest

from repro.bandit.reward import DelayCost, RewardFunction
from repro.evaluation.experiment import evaluate_outcomes, evaluate_scheme
from repro.evaluation.figures import demo_panel_from_evaluation
from repro.evaluation.metrics import (
    accuracy_score,
    confusion_counts,
    cumulative_accuracy,
    cumulative_f1,
    f1_score,
    precision_score,
    recall_score,
)
from repro.evaluation.tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    format_table,
    model_comparison_row,
    scheme_comparison_row,
)
from repro.exceptions import ShapeError
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme


class TestMetrics:
    def test_confusion_counts(self):
        # [tp, fp, tn, fn]
        assert confusion_counts([1, 1, 0, 0, 1], [1, 0, 0, 1, 1]).tolist() == [2, 1, 1, 1]

    def test_accuracy(self):
        assert accuracy_score([1, 0, 1], [1, 0, 0]) == pytest.approx(2 / 3)
        assert accuracy_score([], []) == 0.0

    def test_precision_recall_f1(self):
        predictions = [1, 1, 0, 0]
        labels = [1, 0, 1, 0]
        assert precision_score(predictions, labels) == pytest.approx(0.5)
        assert recall_score(predictions, labels) == pytest.approx(0.5)
        assert f1_score(predictions, labels) == pytest.approx(0.5)

    def test_perfect_prediction(self):
        labels = [0, 1, 1, 0]
        assert f1_score(labels, labels) == 1.0
        assert accuracy_score(labels, labels) == 1.0

    def test_degenerate_cases(self):
        assert precision_score([0, 0], [1, 1]) == 0.0
        assert recall_score([1, 1], [0, 0]) == 0.0
        assert f1_score([0, 0], [0, 0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy_score([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(ShapeError):
            f1_score([2, 0], [1, 0])

    def test_cumulative_accuracy(self):
        result = cumulative_accuracy([1, 0, 1], [1, 1, 1])
        np.testing.assert_allclose(result, [1.0, 0.5, 2 / 3])

    def test_cumulative_f1_monotone_on_perfect_stream(self):
        predictions = [1, 0, 1, 1]
        result = cumulative_f1(predictions, predictions)
        np.testing.assert_allclose(result, [1.0, 1.0, 1.0, 1.0])

    def test_cumulative_empty(self):
        assert cumulative_accuracy([], []).size == 0
        assert cumulative_f1([], []).size == 0

    def test_cumulative_f1_equals_f1_of_every_prefix(self):
        rng = np.random.default_rng(0)
        streams = [([], []), ([0] * 9, [0] * 9), ([1] * 9, [1] * 9), ([0] * 5, [1] * 5),
                   ([1] * 5, [0] * 5)]
        while len(streams) < 200:
            n = int(rng.integers(1, 40))
            streams.append(tuple(rng.integers(0, 2, size=(2, n))))
        for predictions, labels in streams:
            predictions, labels = np.asarray(predictions), np.asarray(labels)
            expected = [
                f1_score(predictions[: i + 1], labels[: i + 1]) for i in range(len(labels))
            ]
            assert cumulative_f1(predictions, labels).tolist() == expected


class TestSchemeEvaluation:
    def test_evaluate_scheme_aggregates(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        reward_fn = RewardFunction(cost=DelayCost(alpha=0.0005))
        evaluation = evaluate_scheme(FixedLayerScheme(system, 0), windows, labels, reward_fn)
        assert evaluation.n_windows == len(labels)
        assert 0.0 <= evaluation.accuracy <= 1.0
        assert 0.0 <= evaluation.f1 <= 1.0
        assert evaluation.mean_delay_ms > 0
        assert np.isfinite(evaluation.total_reward)
        assert evaluation.layer_usage == {0: len(labels)}

    def test_reward_consistency_with_accuracy_and_delay(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        reward_fn = RewardFunction(cost=DelayCost(alpha=0.0005))
        evaluation = evaluate_scheme(FixedLayerScheme(system, 0), windows, labels, reward_fn)
        expected = reward_fn.batch(
            (evaluation.predictions == evaluation.labels).astype(float), evaluation.delays_ms
        ).sum()
        assert evaluation.total_reward == pytest.approx(expected)

    def test_without_reward_function(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        evaluation = evaluate_scheme(FixedLayerScheme(system, 2), windows, labels)
        assert np.isnan(evaluation.total_reward)

    def test_reset_isolates_runs(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        evaluate_scheme(FixedLayerScheme(system, 0), windows, labels)
        evaluation = evaluate_scheme(FixedLayerScheme(system, 2), windows, labels)
        # Only the second scheme's requests should remain in the system log.
        assert system.layer_counters[0].requests == 0
        assert system.layer_counters[2].requests == len(labels)
        assert evaluation.layer_usage == {2: len(labels)}

    def test_outcome_label_count_mismatch(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        scheme = FixedLayerScheme(system, 0)
        run = scheme.run_batch(windows[:3])
        with pytest.raises(ShapeError):
            evaluate_outcomes("x", run, labels[:4])

    def test_as_dict_round_trip(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        evaluation = evaluate_scheme(FixedLayerScheme(system, 1), windows, labels)
        summary = evaluation.as_dict()
        assert summary["scheme"] == "Edge"
        assert summary["accuracy_percent"] == pytest.approx(100.0 * evaluation.accuracy)


class TestTables:
    def test_model_comparison_row(self, univariate_hec):
        system, deployments, detectors, windows, labels = univariate_hec
        evaluation = evaluate_scheme(FixedLayerScheme(system, 0), windows, labels)
        row = model_comparison_row(
            "univariate", "iot", 0, detectors["iot"], evaluation,
            execution_time_ms=deployments[0].execution_time_ms,
        )
        assert row.parameter_count == detectors["iot"].parameter_count()
        assert row.model_name == detectors["iot"].name
        predictions = detectors["iot"].predict(windows)
        assert row.accuracy == accuracy_score(predictions, labels)
        assert row.f1 == f1_score(predictions, labels)
        assert row.execution_time_ms == pytest.approx(12.4)
        assert row.as_dict()["dataset"] == "univariate"

    def test_model_comparison_row_refuses_an_evaluation_served_elsewhere(self, univariate_hec):
        system, deployments, detectors, windows, labels = univariate_hec
        edge = evaluate_scheme(FixedLayerScheme(system, 1), windows, labels)
        with pytest.raises(ValueError, match="served at layers \\[1\\]"):
            model_comparison_row("univariate", "iot", 0, detectors["iot"], edge, 12.4)
        successive = evaluate_scheme(SuccessiveScheme(system), windows, labels)
        with pytest.raises(ValueError, match="Successive"):
            model_comparison_row("univariate", "iot", 0, detectors["iot"], successive, 12.4)
        # A failover: the cloud link is down, so "Cloud" is served below it.
        system.reset()
        system.topology.links_to(2)[-1].set_status("down")
        try:
            redirected = evaluate_scheme(
                FixedLayerScheme(system, 2), windows, labels, reset_system=False
            )
        finally:
            system.reset()
        assert 2 not in redirected.layer_usage
        with pytest.raises(ValueError, match="'Cloud'"):
            model_comparison_row(
                "univariate", "cloud", 2, detectors["cloud"], redirected,
                deployments[2].execution_time_ms,
            )

    def test_scheme_comparison_row(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        reward_fn = RewardFunction(cost=DelayCost(alpha=0.0005))
        evaluation = evaluate_scheme(SuccessiveScheme(system), windows, labels, reward_fn)
        row = scheme_comparison_row("univariate", evaluation)
        assert row.scheme == "Successive"
        assert row.delay_ms == pytest.approx(evaluation.mean_delay_ms)

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}]
        text = format_table(rows, title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([], title="Nothing") == "Nothing"

    def test_paper_reference_tables_complete(self):
        assert len(PAPER_TABLE1) == 6
        assert len(PAPER_TABLE2) == 10
        # The paper's headline claim: adaptive cuts delay by 71.4 % vs cloud (univariate).
        cloud = PAPER_TABLE2[("univariate", "Cloud")]["delay_ms"]
        ours = PAPER_TABLE2[("univariate", "Our Method")]["delay_ms"]
        assert (1 - ours / cloud) * 100 == pytest.approx(71.4, abs=0.5)

    def test_paper_table1_monotone_trends(self):
        for dataset in ("univariate", "multivariate"):
            accuracy = [PAPER_TABLE1[(dataset, tier)]["accuracy_percent"] for tier in ("iot", "edge", "cloud")]
            exec_time = [PAPER_TABLE1[(dataset, tier)]["execution_time_ms"] for tier in ("iot", "edge", "cloud")]
            assert accuracy == sorted(accuracy)
            assert exec_time == sorted(exec_time, reverse=True)


class TestDemoPanel:
    def test_series_lengths(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        evaluation = evaluate_scheme(SuccessiveScheme(system), windows, labels)
        panel = demo_panel_from_evaluation(evaluation)
        n = len(labels)
        assert panel.scheme_name == "Successive"
        assert panel.window_indices.tolist() == list(range(n))
        assert len(panel.predictions) == n
        assert len(panel.delays_ms) == n
        assert len(panel.cumulative_accuracy) == n
        assert len(panel.cumulative_f1) == n
        assert np.array_equal(panel.actions, evaluation.layers)

    def test_cumulative_accuracy_final_matches_overall(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        evaluation = evaluate_scheme(FixedLayerScheme(system, 2), windows, labels)
        panel = demo_panel_from_evaluation(evaluation)
        assert panel.cumulative_accuracy[-1] == pytest.approx(
            accuracy_score(panel.predictions, labels)
        )
        assert panel.cumulative_f1[-1] == evaluation.f1

    def test_summary_lines_truncate(self, univariate_hec):
        system, _deployments, _detectors, windows, labels = univariate_hec
        evaluation = evaluate_scheme(FixedLayerScheme(system, 0), windows, labels)
        panel = demo_panel_from_evaluation(evaluation)
        lines = panel.summary_lines(max_rows=3)
        assert "IoT Device" in lines[0]
        assert any("more windows" in line for line in lines)
