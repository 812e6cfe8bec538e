"""Demo result-panel series (Fig. 3b of the paper).

The paper's GUI continuously plots, for the selected dataset and scheme:

* the raw sensory signals,
* the anomaly-detection outcome (0/1) versus the ground truth,
* the detection delay versus the action (layer) chosen by the policy network,
* the cumulative accuracy and F1-score.

:func:`demo_panel_from_evaluation` produces exactly those series (bar the raw
signals, which the caller already holds) from a scheme's evaluation, so
examples and benchmarks can print/plot the same content without a GUI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.evaluation.metrics import cumulative_accuracy, cumulative_f1


@dataclass
class DemoPanelSeries:
    """The time series shown in the demo's result panel."""

    window_indices: np.ndarray
    predictions: np.ndarray
    ground_truth: np.ndarray
    delays_ms: np.ndarray
    actions: np.ndarray
    cumulative_accuracy: np.ndarray
    cumulative_f1: np.ndarray
    scheme_name: str = ""

    def summary_lines(self, max_rows: int = 10) -> List[str]:
        """A compact textual rendering of the panel (first ``max_rows`` windows)."""
        lines = [
            f"Demo panel — scheme: {self.scheme_name}",
            "idx  pred  truth  layer  delay_ms  cum_acc  cum_f1",
        ]
        for i in range(min(max_rows, len(self.window_indices))):
            lines.append(
                f"{int(self.window_indices[i]):3d}  "
                f"{int(self.predictions[i]):4d}  "
                f"{int(self.ground_truth[i]):5d}  "
                f"{int(self.actions[i]):5d}  "
                f"{self.delays_ms[i]:8.1f}  "
                f"{self.cumulative_accuracy[i]:7.3f}  "
                f"{self.cumulative_f1[i]:6.3f}"
            )
        if len(self.window_indices) > max_rows:
            lines.append(f"... ({len(self.window_indices) - max_rows} more windows)")
        return lines


def demo_panel_from_evaluation(evaluation, scheme_name: str = "") -> DemoPanelSeries:
    """Assemble the demo-panel series from a finished :class:`SchemeEvaluation`.

    The evaluation already stores the per-window prediction/delay/action
    arrays; this is what the experiment runner uses to attach the adaptive
    scheme's panel to a pipeline result.
    """
    predictions = np.asarray(evaluation.predictions, dtype=int)
    labels = np.asarray(evaluation.labels, dtype=int)
    return DemoPanelSeries(
        window_indices=np.arange(len(labels)),
        predictions=predictions,
        ground_truth=labels,
        delays_ms=np.asarray(evaluation.delays_ms, dtype=float),
        actions=np.asarray(evaluation.layers, dtype=int),
        cumulative_accuracy=cumulative_accuracy(predictions, labels),
        cumulative_f1=cumulative_f1(predictions, labels),
        scheme_name=scheme_name or evaluation.scheme_name,
    )

