"""Evaluation: detection metrics, experiment running and table/figure generation."""

from repro.evaluation.metrics import (
    ConfusionCounts,
    confusion_counts,
    accuracy_score,
    precision_score,
    recall_score,
    f1_score,
)
from repro.evaluation.experiment import SchemeEvaluation, evaluate_scheme, evaluate_outcomes
from repro.evaluation.tables import ModelComparisonRow, SchemeComparisonRow, format_table
from repro.evaluation.figures import DemoPanelSeries, build_demo_panel_series

__all__ = [
    "ConfusionCounts",
    "confusion_counts",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "SchemeEvaluation",
    "evaluate_scheme",
    "evaluate_outcomes",
    "ModelComparisonRow",
    "SchemeComparisonRow",
    "format_table",
    "DemoPanelSeries",
    "build_demo_panel_series",
]
