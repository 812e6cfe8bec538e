"""Multivariate MHEALTH-like walkthrough (the paper's LSTM-seq2seq track).

Builds the multivariate experiment explicitly:

* synthetic 18-channel activity data (10 subjects x 12 activities at paper
  scale, smaller by default so the script finishes quickly on a CPU),
* 128-step windows with stride 64 (paper scale) or smaller windows by default,
* the LSTM-seq2seq-IoT / LSTM-seq2seq-Edge / BiLSTM-seq2seq-Cloud detectors,
* the encoder-state context and policy-network training,
* evaluation of the five selection schemes.

Run it with::

    python examples/multivariate_mhealth.py [--subjects 3] [--paper-scale]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data.mhealth import ACTIVITY_NAMES
from repro.evaluation.tables import format_table
from repro.experiments import ExperimentRunner, apply_overrides, get_scenario


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--subjects", type=int, default=3, help="number of simulated subjects")
    parser.add_argument("--seconds-per-activity", type=float, default=8.0)
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="use the paper's dimensions (10 subjects, 50 Hz, 128-step windows, 50/100/200 LSTM units)",
    )
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()

    if args.paper_scale:
        spec = get_scenario("multivariate-mhealth-paper")
    else:
        spec = apply_overrides(get_scenario("multivariate-mhealth").with_seed(args.seed), {
            "data.n_subjects": args.subjects,
            "data.seconds_per_activity": args.seconds_per_activity,
        })

    print(
        f"Running the multivariate experiment: {spec.data.n_subjects} subjects, "
        f"{len(ACTIVITY_NAMES)} activities, normal activity = {spec.data.normal_activity!r}, "
        f"window {spec.data.window_size} steps / stride {spec.data.stride}."
    )
    result = ExperimentRunner(spec).run()

    print()
    print(format_table([row.as_dict() for row in result.table1_rows],
                       title="Table I (multivariate): per-model comparison"))
    print()
    print(format_table([row.as_dict() for row in result.table2_rows],
                       title="Table II (multivariate): per-scheme comparison"))

    adaptive = result.evaluations["Our Method"]
    cloud = result.evaluations["Cloud"]
    print()
    print(
        f"Adaptive scheme: accuracy {100 * adaptive.accuracy:.2f}% "
        f"(cloud {100 * cloud.accuracy:.2f}%), "
        f"mean delay {adaptive.mean_delay_ms:.1f} ms (cloud {cloud.mean_delay_ms:.1f} ms), "
        f"layer usage {adaptive.layer_usage}."
    )
    print("Context for the policy network comes from the IoT model's LSTM-encoder state "
          f"({result.policy.context_dim} dimensions).")


if __name__ == "__main__":
    main()
