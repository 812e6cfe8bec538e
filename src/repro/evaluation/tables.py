"""Generators for the paper's Table I and Table II.

Table I compares the anomaly-detection models themselves (parameters,
accuracy, F1, execution time per layer); Table II compares the five
model-selection schemes (F1, accuracy, end-to-end delay, cumulative reward).
Both are read off scheme evaluations: a Table I column is the fixed-layer
scheme's evaluation at that tier.  ``format_table`` renders either as aligned
plain text, which is what the benchmark harness prints alongside the paper's
reference numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.detectors.base import AnomalyDetector
from repro.evaluation.experiment import SchemeEvaluation


@dataclass
class ModelComparisonRow:
    """One column of Table I (one model at one HEC layer)."""

    dataset: str
    tier: str
    model_name: str
    parameter_count: int
    accuracy: float
    f1: float
    execution_time_ms: float

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "dataset": self.dataset,
            "tier": self.tier,
            "model": self.model_name,
            "parameters": self.parameter_count,
            "accuracy_percent": 100.0 * self.accuracy,
            "f1": self.f1,
            "execution_time_ms": self.execution_time_ms,
        }


@dataclass
class SchemeComparisonRow:
    """One row of Table II (one selection scheme on one dataset)."""

    dataset: str
    scheme: str
    f1: float
    accuracy: float
    delay_ms: float
    reward: float

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "dataset": self.dataset,
            "scheme": self.scheme,
            "f1": self.f1,
            "accuracy_percent": 100.0 * self.accuracy,
            "delay_ms": self.delay_ms,
            "reward": self.reward,
        }


def model_comparison_row(
    dataset: str,
    tier: str,
    layer: int,
    detector: AnomalyDetector,
    evaluation: SchemeEvaluation,
    execution_time_ms: float,
) -> ModelComparisonRow:
    """The Table I column of the detector deployed at ``layer``.

    Read off ``evaluation``, the fixed-layer scheme's run over the test set:
    that run is this detector's predictions on every test window, so Table I
    needs no detection of its own.  An evaluation any of whose windows was
    served at another layer (failover) measured another detector, and raises.
    """
    served = sorted(set(evaluation.layer_usage) - {layer})
    if served:
        raise ValueError(
            f"Table I row for layer {layer} ({tier!r}) needs its fixed-layer evaluation, "
            f"but {evaluation.scheme_name!r} was also served at layers {served}"
        )
    return ModelComparisonRow(
        dataset=dataset,
        tier=tier,
        model_name=detector.name,
        parameter_count=detector.parameter_count(),
        accuracy=evaluation.accuracy,
        f1=evaluation.f1,
        execution_time_ms=execution_time_ms,
    )


def scheme_comparison_row(dataset: str, evaluation: SchemeEvaluation) -> SchemeComparisonRow:
    """Convert a :class:`SchemeEvaluation` into its Table II row."""
    return SchemeComparisonRow(
        dataset=dataset,
        scheme=evaluation.scheme_name,
        f1=evaluation.f1,
        accuracy=evaluation.accuracy,
        delay_ms=evaluation.mean_delay_ms,
        reward=evaluation.total_reward,
    )


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[List[str]] = None,
    float_format: str = "{:.3f}",
    title: Optional[str] = None,
) -> str:
    """Render dictionaries as an aligned plain-text table."""
    rows = [dict(row) for row in rows]
    if not rows:
        return title or ""
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered)) for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for line in rendered:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(lines)


#: Reference values from the paper, used by benchmarks and EXPERIMENTS.md to
#: report paper-vs-measured side by side.  Keys: (dataset, tier) for Table I
#: and (dataset, scheme) for Table II.
PAPER_TABLE1: Dict[tuple, dict] = {
    ("univariate", "iot"): {"parameters": 271_017, "accuracy_percent": 78.09, "f1": 0.465, "execution_time_ms": 12.4},
    ("univariate", "edge"): {"parameters": 949_468, "accuracy_percent": 93.33, "f1": 0.741, "execution_time_ms": 7.4},
    ("univariate", "cloud"): {"parameters": 1_085_077, "accuracy_percent": 98.09, "f1": 0.909, "execution_time_ms": 4.5},
    ("multivariate", "iot"): {"parameters": 28_518, "accuracy_percent": 82.63, "f1": 0.852, "execution_time_ms": 591.0},
    ("multivariate", "edge"): {"parameters": 97_818, "accuracy_percent": 94.21, "f1": 0.955, "execution_time_ms": 417.3},
    ("multivariate", "cloud"): {"parameters": 1_028_018, "accuracy_percent": 97.37, "f1": 0.980, "execution_time_ms": 232.3},
}

PAPER_TABLE2: Dict[tuple, dict] = {
    ("univariate", "IoT Device"): {"f1": 0.465, "accuracy_percent": 93.68, "delay_ms": 12.4, "reward": 48.39},
    ("univariate", "Edge"): {"f1": 0.800, "accuracy_percent": 98.63, "delay_ms": 257.43, "reward": 45.36},
    ("univariate", "Cloud"): {"f1": 0.909, "accuracy_percent": 99.46, "delay_ms": 504.50, "reward": 41.24},
    ("univariate", "Successive"): {"f1": 0.769, "accuracy_percent": 98.35, "delay_ms": 105.27, "reward": float("nan")},
    ("univariate", "Our Method"): {"f1": 0.870, "accuracy_percent": 99.17, "delay_ms": 144.50, "reward": 49.52},
    ("multivariate", "IoT Device"): {"f1": 0.848, "accuracy_percent": 93.19, "delay_ms": 591.0, "reward": 389.85},
    ("multivariate", "Edge"): {"f1": 0.951, "accuracy_percent": 97.59, "delay_ms": 667.30, "reward": 403.77},
    ("multivariate", "Cloud"): {"f1": 0.980, "accuracy_percent": 99.00, "delay_ms": 732.30, "reward": 404.12},
    ("multivariate", "Successive"): {"f1": 0.911, "accuracy_percent": 95.79, "delay_ms": 626.16, "reward": float("nan")},
    ("multivariate", "Our Method"): {"f1": 0.972, "accuracy_percent": 98.60, "delay_ms": 674.87, "reward": 408.06},
}
