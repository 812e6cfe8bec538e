"""Evaluation: detection metrics, experiment running and table/figure generation."""

from repro.evaluation.metrics import (
    confusion_counts,
    accuracy_score,
    precision_score,
    recall_score,
    f1_score,
)
from repro.evaluation.experiment import SchemeEvaluation, evaluate_scheme, evaluate_outcomes
from repro.evaluation.tables import ModelComparisonRow, SchemeComparisonRow, format_table
from repro.evaluation.figures import DemoPanelSeries, demo_panel_from_evaluation

__all__ = [
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
    "demo_panel_from_evaluation",
]
