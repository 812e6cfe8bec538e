"""Generalising to K > 3 layers: a five-layer hierarchical edge deployment.

Section II of the paper notes that the approach "applies to any K in general,
i.e. multiple layers of edge servers".  This example demonstrates that the
library is not hard-wired to the three-layer testbed: it builds a five-layer
hierarchy (device, gateway, micro edge, regional edge, cloud), trains five
autoencoders of increasing capacity, trains a five-action policy network and
compares the fixed-layer, successive and adaptive schemes on it.

Run it with::

    python examples/custom_hierarchy.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.bandit.context import UnivariateContextExtractor
from repro.bandit.reward import DelayCost, RewardFunction
from repro.data.datasets import LabeledWindows
from repro.data.power import PowerDatasetConfig, generate_power_dataset, weekly_windows
from repro.data.preprocessing import StandardScaler
from repro.data.splits import anomaly_detection_split, policy_training_split
from repro.detectors.autoencoder import AutoencoderDetector
from repro.evaluation.experiment import evaluate_scheme
from repro.evaluation.tables import format_table
from repro.hec.deployment import deploy_detectors
from repro.hec.device import DeviceProfile
from repro.hec.network import NetworkLink
from repro.hec.simulation import HECSystem
from repro.hec.topology import HECTopology
from repro.experiments.stages import train_policy
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme

#: The five tiers of this example's hierarchy, bottom-up.
TIER_NAMES = ("device", "gateway", "micro-edge", "regional-edge", "cloud")


def build_five_layer_topology() -> HECTopology:
    """Five devices of increasing capability, four links of increasing latency."""
    devices = [
        DeviceProfile(name="Sensor MCU", tier="iot", throughput_params_per_ms=2e3, memory_mb=64,
                      supports_fp32=False),
        DeviceProfile(name="IoT Gateway", tier="edge", throughput_params_per_ms=1e4, memory_mb=512,
                      supports_fp32=False),
        DeviceProfile(name="Micro edge server", tier="edge", throughput_params_per_ms=5e4,
                      memory_mb=4096),
        DeviceProfile(name="Regional edge server", tier="edge", throughput_params_per_ms=2e5,
                      memory_mb=16384),
        DeviceProfile(name="Cloud datacentre", tier="cloud", throughput_params_per_ms=1e6,
                      memory_mb=262144),
    ]
    links = [
        NetworkLink("device-gateway", one_way_latency_ms=2.0, bandwidth_mbps=50.0),
        NetworkLink("gateway-microedge", one_way_latency_ms=10.0, bandwidth_mbps=200.0),
        NetworkLink("microedge-regional", one_way_latency_ms=40.0, bandwidth_mbps=500.0),
        NetworkLink("regional-cloud", one_way_latency_ms=120.0, bandwidth_mbps=1000.0),
    ]
    return HECTopology(devices=devices, links=links)


def main() -> None:
    rng = np.random.default_rng(0)

    # Data: same synthetic power series as the univariate track.
    data_config = PowerDatasetConfig(weeks=40, samples_per_day=24, anomalous_day_fraction=0.06, seed=7)
    dataset = generate_power_dataset(data_config)
    windows, labels = weekly_windows(dataset, data_config.samples_per_day)
    all_windows = LabeledWindows(windows=windows, labels=labels)
    split = anomaly_detection_split(all_windows, anomaly_test_fraction=1.0, rng=0)
    scaler = StandardScaler().fit(split.train.windows)
    train_windows = scaler.transform(split.train.windows)
    test_windows = scaler.transform(split.test.windows)
    test_labels = split.test.labels

    # Five detectors of increasing capacity, one per layer.
    topology = build_five_layer_topology()
    detectors = []
    hidden_sizes = [(4,), (8,), (16,), (32, 16, 32), (64, 32, 16, 32, 64)]
    for layer, hidden in enumerate(hidden_sizes):
        detector = AutoencoderDetector(
            window_size=all_windows.window_size,
            hidden_sizes=hidden,
            name=f"AE-{TIER_NAMES[layer]}",
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        detector.fit(train_windows, epochs=60, batch_size=8, learning_rate=3e-3)
        detectors.append(detector)
        print(f"Trained {detector.name}: {detector.parameter_count()} parameters")

    deployments = deploy_detectors(detectors, topology, workload="weekly-window",
                                   quantize_below_layer=2)
    system = HECSystem(topology, deployments)
    print("\n" + topology.describe())

    # Policy network over five actions.
    standardized_all = LabeledWindows(
        windows=scaler.transform(all_windows.windows), labels=all_windows.labels
    )
    policy_train, _ = policy_training_split(standardized_all, anomaly_fraction=1.0, rng=0)
    extractor = UnivariateContextExtractor(segments=7).fit(policy_train.windows)
    reward_fn = RewardFunction(cost=DelayCost(alpha=0.002))
    policy, log, _ = train_policy(
        system,
        detectors,
        extractor,
        policy_train.windows,
        policy_train.labels,
        reward_fn,
        episodes=40,
        seed=0,
    )
    print(f"\nPolicy network: {policy.n_actions} actions, "
          f"mean reward {log.episode_mean_rewards[0]:.3f} -> {log.episode_mean_rewards[-1]:.3f}")

    # Compare schemes on the five-layer hierarchy.
    rows = []
    schemes = [FixedLayerScheme(system, layer) for layer in range(system.n_layers)]
    schemes.append(SuccessiveScheme(system))
    schemes.append(AdaptiveScheme(system, policy, extractor))
    for scheme in schemes:
        evaluation = evaluate_scheme(scheme, test_windows, test_labels, reward_fn=reward_fn)
        row = evaluation.as_dict()
        row["scheme"] = scheme.name if not isinstance(scheme, FixedLayerScheme) \
            else f"Always {TIER_NAMES[scheme.layer]}"
        rows.append(row)
    print()
    print(format_table(
        rows,
        columns=["scheme", "f1", "accuracy_percent", "mean_delay_ms", "total_reward"],
        title="Five-layer hierarchy: scheme comparison",
    ))


if __name__ == "__main__":
    main()
