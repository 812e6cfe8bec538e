"""Headless reproduction of the demo GUI's result panel (Fig. 3b).

The paper's demo shows a GUI where a user picks a dataset and a selection
scheme, presses "Start" and watches the raw signals, detection outcome vs.
ground truth, delay vs. selected action, and the cumulative accuracy/F1 update
in real time.  This example reproduces the same information as a text panel:
it streams the test windows through the chosen scheme one at a time, then
prints one panel row per window.

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

from repro.evaluation.experiment import evaluate_outcomes
from repro.evaluation.figures import demo_panel_from_evaluation
from repro.experiments import ExperimentRunner, get_scenario
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.base import SchemeRun
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
    run = SchemeRun.concatenate(
        [scheme.run_batch(windows[index : index + 1]) for index in range(len(windows))]
    )
    panel = demo_panel_from_evaluation(evaluate_outcomes(scheme.name, run, labels))
    print("\n".join(panel.summary_lines(max_rows=len(windows))))

    actions = np.bincount(panel.actions, minlength=result.system.n_layers)
    print("\nSummary")
    print(f"  final cumulative accuracy: {panel.cumulative_accuracy[-1]:.3f}")
    print(f"  final cumulative F1:       {panel.cumulative_f1[-1]:.3f}")
    print(f"  mean end-to-end delay:     {panel.delays_ms.mean():.1f} ms")
    print(f"  requests per layer:        {actions.tolist()} (IoT, Edge, Cloud)")


if __name__ == "__main__":
    main()
