"""Fig. 3b — demo result panel (streaming detection with the adaptive scheme).

The paper's GUI continuously plots the raw signals, the detection outcome vs.
ground truth, the detection delay vs. the chosen action, and the cumulative
accuracy / F1-score.  This benchmark regenerates those series by streaming the
test set through the adaptive scheme, and reports the first rows of the panel
plus the per-layer action distribution.

Expected shape: the cumulative accuracy stabilises near the Table II adaptive
accuracy, the delay of each window matches the chosen layer (low for layer 0,
high for layer 2), and actions are context-dependent rather than constant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.figures import build_demo_panel_series
from repro.evaluation.tables import format_table
from repro.schemes.adaptive import AdaptiveScheme

from .conftest import write_result


@pytest.mark.benchmark(group="fig3-demo")
@pytest.mark.parametrize("dataset", ["univariate", "multivariate"])
def test_fig3_demo_panel_stream(benchmark, univariate_result, multivariate_result, dataset):
    """Benchmark streaming the test set through the adaptive scheme (one window at a time)."""
    result = univariate_result if dataset == "univariate" else multivariate_result
    windows, labels = result.test_windows, result.test_labels

    def stream():
        result.system.reset()
        scheme = AdaptiveScheme(result.system, result.policy, result.context_extractor)
        outcomes = [
            scheme.handle_window(windows[index], index, ground_truth=int(labels[index]))
            for index in range(len(labels))
        ]
        return build_demo_panel_series(outcomes, labels, windows=windows, scheme_name=scheme.name)

    panel = benchmark(stream)

    assert len(panel.predictions) == len(labels)
    assert np.all((panel.actions >= 0) & (panel.actions < 3))

    lines = panel.summary_lines(max_rows=12)
    action_counts = np.bincount(panel.actions, minlength=3)
    lines.append(
        f"final cumulative accuracy: {panel.cumulative_accuracy[-1]:.3f}, "
        f"final cumulative F1: {panel.cumulative_f1[-1]:.3f}"
    )
    lines.append(f"actions per layer (IoT/Edge/Cloud): {action_counts.tolist()}")
    lines.append(f"mean delay: {panel.delays_ms.mean():.1f} ms")
    text = "\n".join(lines)
    write_result(f"fig3_demo_panel_{dataset}", text)
    print("\n" + text)


@pytest.mark.benchmark(group="fig3-demo-comparison")
def test_fig3_scheme_comparison_series(benchmark, univariate_result):
    """Regenerate the per-scheme delay/accuracy series a demo user can toggle between."""
    result = univariate_result

    def collect():
        rows = []
        for name, evaluation in result.evaluations.items():
            rows.append(
                {
                    "scheme": name,
                    "final_accuracy": evaluation.accuracy,
                    "final_f1": evaluation.f1,
                    "mean_delay_ms": evaluation.mean_delay_ms,
                    "layer_usage": str(evaluation.layer_usage),
                }
            )
        return rows

    rows = benchmark(collect)
    text = format_table(rows, title="Fig. 3: per-scheme result-panel summaries (univariate)")
    write_result("fig3_scheme_comparison", text)
    print("\n" + text)
