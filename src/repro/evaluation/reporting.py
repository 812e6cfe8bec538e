"""Experiment reporting: persist pipeline results as JSON and Markdown.

A :class:`~repro.experiments.stages.PipelineResult` contains everything needed
to regenerate the paper's tables for one dataset.  This module serialises that
result into two artefacts:

* ``<name>.json`` — machine-readable summary (Table I rows, Table II rows,
  bandit training log, layer usage), suitable for further analysis;
* ``<name>.md`` — a human-readable Markdown report with the measured tables
  side by side with the paper's reference numbers.

These are the files EXPERIMENTS.md points to and the benchmark harness links
against.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.evaluation.tables import PAPER_TABLE1, PAPER_TABLE2
from repro.utils.serialization import save_json

PathLike = Union[str, Path]

#: Row order used for the scheme table, matching the paper's Table II.
SCHEME_ORDER = ("IoT Device", "Edge", "Cloud", "Successive", "Our Method")


def result_to_dict(result) -> Dict:
    """Convert a :class:`PipelineResult` into a JSON-serialisable dictionary."""
    return {
        "dataset": result.dataset_name,
        "table1": [row.as_dict() for row in result.table1_rows],
        "table2": [row.as_dict() for row in result.table2_rows],
        "layer_usage": {
            name: {str(layer): count for layer, count in evaluation.layer_usage.items()}
            for name, evaluation in result.evaluations.items()
        },
        "bandit_training": {
            "episodes": result.bandit_log.episodes,
            "episode_mean_rewards": list(result.bandit_log.episode_mean_rewards),
            "final_action_distribution": result.bandit_log.final_action_distribution().tolist(),
        },
        "policy": result.policy.get_config(),
        "deployments": [
            {
                "layer": deployment.layer,
                "model": deployment.detector.name,
                "device": deployment.device_name,
                "quantized": deployment.quantized,
                "execution_time_ms": deployment.execution_time_ms,
                "parameters": deployment.detector.parameter_count(),
            }
            for deployment in result.deployments
        ],
        "n_test_windows": int(result.test_labels.shape[0]),
    }


def _markdown_table(headers: List[str], rows: List[List[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _fmt(value, digits: int = 3) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def result_to_markdown(result, title: Optional[str] = None) -> str:
    """Render a Markdown report comparing measured values against the paper."""
    dataset = result.dataset_name
    lines = [f"# {title or f'Reproduction report: {dataset} dataset'}", ""]

    # Table I ---------------------------------------------------------------
    lines.append("## Table I — comparison among AD models")
    lines.append("")
    headers = ["Tier", "Model", "Params (ours)", "Params (paper)",
               "Accuracy % (ours)", "Accuracy % (paper)", "F1 (ours)", "F1 (paper)",
               "Exec ms (ours)", "Exec ms (paper)"]
    rows = []
    for row in result.table1_rows:
        reference = PAPER_TABLE1.get((dataset, row.tier), {})
        rows.append([
            row.tier,
            row.model_name,
            str(row.parameter_count),
            str(reference.get("parameters", "-")),
            _fmt(100.0 * row.accuracy, 2),
            _fmt(reference.get("accuracy_percent", float("nan")), 2),
            _fmt(row.f1),
            _fmt(reference.get("f1", float("nan"))),
            _fmt(row.execution_time_ms, 1),
            _fmt(reference.get("execution_time_ms", float("nan")), 1),
        ])
    lines.append(_markdown_table(headers, rows))
    lines.append("")

    # Table II --------------------------------------------------------------
    lines.append("## Table II — comparison among model-selection schemes")
    lines.append("")
    headers = ["Scheme", "F1 (ours)", "F1 (paper)", "Accuracy % (ours)", "Accuracy % (paper)",
               "Delay ms (ours)", "Delay ms (paper)", "Reward (ours)", "Reward (paper)"]
    rows = []
    by_name = {row.scheme: row for row in result.table2_rows}
    # Paper order first, then any extra schemes (custom-topology fixed layers)
    # in their evaluation order.
    ordered = [name for name in SCHEME_ORDER if name in by_name]
    ordered += [row.scheme for row in result.table2_rows if row.scheme not in ordered]
    for name in ordered:
        row = by_name[name]
        reference = PAPER_TABLE2.get((dataset, name), {})
        rows.append([
            name,
            _fmt(row.f1),
            _fmt(reference.get("f1", float("nan"))),
            _fmt(100.0 * row.accuracy, 2),
            _fmt(reference.get("accuracy_percent", float("nan")), 2),
            _fmt(row.delay_ms, 1),
            _fmt(reference.get("delay_ms", float("nan")), 1),
            _fmt(row.reward, 2),
            _fmt(reference.get("reward", float("nan")), 2),
        ])
    lines.append(_markdown_table(headers, rows))
    lines.append("")

    # Adaptive-scheme detail -------------------------------------------------
    adaptive = result.evaluations.get("Our Method")
    cloud = result.evaluations.get("Cloud")
    if adaptive is not None and cloud is not None and cloud.mean_delay_ms > 0:
        delay_reduction = 100.0 * (1.0 - adaptive.mean_delay_ms / cloud.mean_delay_ms)
        lines.append("## Adaptive scheme summary")
        lines.append("")
        lines.append(
            f"* end-to-end delay reduction vs always-cloud: **{delay_reduction:.1f}%** "
            f"(paper reports 71.4% univariate / 7.84% multivariate)"
        )
        lines.append(f"* accuracy gap to always-cloud: "
                     f"{100.0 * (cloud.accuracy - adaptive.accuracy):.2f} percentage points")
        lines.append(f"* requests per layer: {adaptive.layer_usage}")
        lines.append("")
    return "\n".join(lines)


def write_report(result, directory: PathLike, name: Optional[str] = None) -> Dict[str, Path]:
    """Write the JSON and Markdown reports for one pipeline result.

    Returns a dict with the paths of the written files (keys ``"json"`` and
    ``"markdown"``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = name or f"report_{result.dataset_name}"
    json_path = save_json(directory / f"{stem}.json", result_to_dict(result))
    markdown_path = directory / f"{stem}.md"
    markdown_path.write_text(result_to_markdown(result) + "\n", encoding="utf-8")
    return {"json": json_path, "markdown": markdown_path}
