"""Univariate power-consumption walkthrough (the paper's autoencoder track).

Unlike the quickstart, this example builds the pieces explicitly instead of
calling the experiment runner, so it doubles as a tour of the public API:

* synthetic power data generation and weekly windowing,
* training the three autoencoders on normal weeks only,
* Gaussian logPD scoring and the confident-detection rules,
* deployment on the simulated HEC testbed,
* contextual features (per-day statistics) and policy-network training,
* evaluation of the five selection schemes.

Run it with::

    python examples/univariate_power.py [--weeks 40] [--paper-scale]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.bandit.context import UnivariateContextExtractor
from repro.bandit.reward import DelayCost, RewardFunction, PAPER_ALPHA_UNIVARIATE
from repro.data.datasets import LabeledWindows
from repro.data.power import PowerDatasetConfig, generate_power_dataset, weekly_windows
from repro.data.preprocessing import StandardScaler
from repro.data.splits import anomaly_detection_split, policy_training_split
from repro.detectors.autoencoder import build_autoencoder_detector
from repro.evaluation.experiment import evaluate_scheme
from repro.evaluation.tables import format_table
from repro.experiments.stages import build_schemes, train_policy
from repro.hec.deployment import deploy_detectors
from repro.hec.simulation import HECSystem
from repro.hec.topology import build_three_layer_topology


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weeks", type=int, default=40, help="number of synthetic weeks")
    parser.add_argument(
        "--samples-per-day", type=int, default=24,
        help="samples per day (96 = the paper's 15-minute sampling)",
    )
    parser.add_argument(
        "--paper-scale", action="store_true",
        help="use the paper-scale autoencoder architectures (much slower)",
    )
    parser.add_argument("--epochs", type=int, default=40, help="training epochs per detector")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    rng = np.random.default_rng(args.seed)

    # 1. Data ---------------------------------------------------------------
    data_config = PowerDatasetConfig(
        weeks=args.weeks, samples_per_day=args.samples_per_day,
        anomalous_day_fraction=0.06, seed=args.seed + 7,
    )
    dataset = generate_power_dataset(data_config)
    windows, labels = weekly_windows(dataset, data_config.samples_per_day)
    all_windows = LabeledWindows(windows=windows, labels=labels)
    print(f"Generated {len(all_windows)} weekly windows "
          f"({int(all_windows.labels.sum())} anomalous).")

    split = anomaly_detection_split(all_windows, anomaly_test_fraction=1.0, rng=args.seed)
    scaler = StandardScaler().fit(split.train.windows)
    train_windows = scaler.transform(split.train.windows)
    test_windows = scaler.transform(split.test.windows)
    test_labels = split.test.labels

    # 2. Detectors ----------------------------------------------------------
    hidden_sizes = None if args.paper_scale else {
        "iot": (12,), "edge": (48, 24, 48), "cloud": (64, 32, 16, 32, 64),
    }
    detectors = []
    for tier in ("iot", "edge", "cloud"):
        detector = build_autoencoder_detector(
            tier,
            window_size=all_windows.window_size,
            hidden_sizes=None if hidden_sizes is None else hidden_sizes[tier],
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        detector.fit(train_windows, epochs=args.epochs, batch_size=8, learning_rate=1e-3)
        print(f"Trained {detector.name}: {detector.parameter_count()} parameters, "
              f"final loss {detector.model.history.losses[-1]:.4f}")
        detectors.append(detector)

    # 3. HEC deployment -------------------------------------------------------
    topology = build_three_layer_topology()
    deployments = deploy_detectors(detectors, topology, workload="univariate")
    system = HECSystem(topology, deployments)
    for deployment in deployments:
        print(f"Deployed {deployment.detector.name} on {deployment.device_name} "
              f"(quantized={deployment.quantized}, exec {deployment.execution_time_ms:.1f} ms)")

    # 4. Policy training -------------------------------------------------------
    standardized_all = LabeledWindows(
        windows=scaler.transform(all_windows.windows), labels=all_windows.labels
    )
    policy_train, _ = policy_training_split(standardized_all, anomaly_fraction=1.0, rng=args.seed)
    extractor = UnivariateContextExtractor(segments=7).fit(policy_train.windows)
    reward_fn = RewardFunction(cost=DelayCost(alpha=PAPER_ALPHA_UNIVARIATE))
    policy, log, _table = train_policy(
        system,
        detectors,
        extractor,
        policy_train.windows,
        policy_train.labels,
        reward_fn,
        episodes=40,
        seed=args.seed,
    )
    print(f"Policy network trained for {log.episodes} episodes; "
          f"mean reward {log.episode_mean_rewards[0]:.3f} -> {log.episode_mean_rewards[-1]:.3f}")

    # 5. Scheme evaluation -------------------------------------------------------
    rows = []
    for scheme in build_schemes(system, policy, extractor):
        evaluation = evaluate_scheme(scheme, test_windows, test_labels, reward_fn=reward_fn)
        rows.append(evaluation.as_dict())
    print()
    print(format_table(rows, columns=["scheme", "f1", "accuracy_percent", "mean_delay_ms", "total_reward"],
                       title="Scheme comparison on the held-out test weeks"))


if __name__ == "__main__":
    main()
