"""Headless reproduction of the demo GUI's result panel (Fig. 3b).

The paper's demo shows a GUI where a user picks a dataset and a selection
scheme, presses "Start" and watches the raw signals, detection outcome vs.
ground truth, delay vs. selected action, and the cumulative accuracy/F1 update
in real time.  This example reproduces the same information as a streaming
text panel: it runs the chosen scheme window by window and prints one panel
row per window.

Run it with::

    python examples/demo_panel.py --dataset univariate --scheme adaptive
    python examples/demo_panel.py --dataset multivariate --scheme successive --max-windows 20
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.evaluation.figures import build_demo_panel_series
from repro.evaluation.metrics import cumulative_accuracy, cumulative_f1
from repro.experiments import ExperimentRunner, get_scenario
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme

SCHEME_CHOICES = ("iot", "edge", "cloud", "successive", "adaptive")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=("univariate", "multivariate"), default="univariate")
    parser.add_argument("--scheme", choices=SCHEME_CHOICES, default="adaptive")
    parser.add_argument("--max-windows", type=int, default=30,
                        help="number of test windows to stream")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def build_scheme(result, name: str):
    """Instantiate the requested selection scheme against the run's HEC system."""
    if name == "adaptive":
        return AdaptiveScheme(result.system, result.policy, result.context_extractor)
    if name == "successive":
        return SuccessiveScheme(result.system)
    layer = {"iot": 0, "edge": 1, "cloud": 2}[name]
    return FixedLayerScheme(result.system, layer)


def main() -> None:
    args = parse_args()
    print(f"Preparing the {args.dataset} experiment (training detectors and policy network)...")
    scenario = {"univariate": "univariate-power", "multivariate": "multivariate-mhealth"}
    result = ExperimentRunner(get_scenario(scenario[args.dataset]).with_seed(args.seed)).run()

    scheme = build_scheme(result, args.scheme)
    windows = result.test_windows[: args.max_windows]
    labels = result.test_labels[: args.max_windows]
    result.system.reset()

    print(f"\nStreaming {len(windows)} test windows through the {scheme.name!r} scheme:\n")
    print("idx  pred  truth  layer  delay_ms  cum_acc  cum_f1")
    outcomes = []
    for index in range(len(windows)):
        outcome = scheme.handle_window(windows[index], index, ground_truth=int(labels[index]))
        outcomes.append(outcome)
        predictions = np.array([o.prediction for o in outcomes])
        seen_labels = labels[: index + 1]
        accuracy = cumulative_accuracy(predictions, seen_labels)[-1]
        f1 = cumulative_f1(predictions, seen_labels)[-1]
        print(
            f"{index:3d}  {outcome.prediction:4d}  {int(labels[index]):5d}  "
            f"{outcome.layer:5d}  {outcome.delay_ms:8.1f}  {accuracy:7.3f}  {f1:6.3f}"
        )

    panel = build_demo_panel_series(outcomes, labels, windows=windows, scheme_name=scheme.name)
    actions = np.bincount(panel.actions, minlength=result.system.n_layers)
    print("\nSummary")
    print(f"  final cumulative accuracy: {panel.cumulative_accuracy[-1]:.3f}")
    print(f"  final cumulative F1:       {panel.cumulative_f1[-1]:.3f}")
    print(f"  mean end-to-end delay:     {panel.delays_ms.mean():.1f} ms")
    print(f"  requests per layer:        {actions.tolist()} (IoT, Edge, Cloud)")


if __name__ == "__main__":
    main()
