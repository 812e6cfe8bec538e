"""Shared experiment machinery used by every stage of the runner.

Both of the paper's experiment tracks — and every registered scenario — follow
the same recipe once their detectors are trained:

1. register the detectors in a :class:`~repro.detectors.registry.DetectorRegistry`,
2. deploy them on the HEC topology (quantising the lower tiers),
3. build the reward table for the bandit from per-layer correctness and
   per-layer expected delay,
4. train the policy network with REINFORCE,
5. evaluate the selection schemes against the same HEC system.

This module holds that shared machinery plus the :class:`PipelineResult`
container returned by :meth:`~repro.experiments.runner.ExperimentRunner.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bandit.context import ContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.bandit.reinforce import BanditEpisodeLog, ReinforceTrainer
from repro.bandit.reward import RewardFunction
from repro.detectors.base import AnomalyDetector
from repro.detectors.registry import DetectorRegistry
from repro.evaluation.experiment import SchemeEvaluation, evaluate_scheme
from repro.evaluation.figures import DemoPanelSeries, demo_panel_from_evaluation
from repro.evaluation.tables import ModelComparisonRow, SchemeComparisonRow, scheme_comparison_row
from repro.hec.deployment import ModelDeployment, deploy_registry
from repro.hec.simulation import HECSystem
from repro.hec.topology import HECTopology, build_three_layer_topology
from repro.schemes.adaptive import AdaptiveScheme
from repro.schemes.base import SelectionScheme
from repro.schemes.fixed import FixedLayerScheme
from repro.schemes.successive import SuccessiveScheme

#: Canonical tier order of the paper's three-layer topology.
TIERS = ("iot", "edge", "cloud")


@dataclass
class PipelineResult:
    """Everything produced by one end-to-end experiment run."""

    dataset_name: str
    detectors: Dict[str, AnomalyDetector]
    system: HECSystem
    deployments: List[ModelDeployment]
    policy: PolicyNetwork
    context_extractor: ContextExtractor
    reward_fn: RewardFunction
    bandit_log: BanditEpisodeLog
    table1_rows: List[ModelComparisonRow]
    table2_rows: List[SchemeComparisonRow]
    evaluations: Dict[str, SchemeEvaluation]
    demo_panel: Optional[DemoPanelSeries] = None
    test_windows: np.ndarray = field(default_factory=lambda: np.array([]))
    test_labels: np.ndarray = field(default_factory=lambda: np.array([], dtype=int))

    def evaluation(self, scheme_name: str) -> SchemeEvaluation:
        """Evaluation of a scheme by name (raises KeyError when absent)."""
        return self.evaluations[scheme_name]

    def summary(self) -> str:
        """Short plain-text summary of the scheme comparison."""
        lines = [f"Pipeline results for {self.dataset_name}:"]
        for row in self.table2_rows:
            lines.append(
                f"  {row.scheme:<12s} F1={row.f1:.3f} acc={100 * row.accuracy:.2f}% "
                f"delay={row.delay_ms:.1f}ms reward={row.reward:.2f}"
            )
        return "\n".join(lines)


def build_hec_system(
    detectors: Dict[str, AnomalyDetector],
    workload: str,
    topology: Optional[HECTopology] = None,
    execution_time_overrides: Optional[Dict[int, float]] = None,
    quantize_below_layer: Optional[int] = None,
) -> tuple[HECSystem, List[ModelDeployment]]:
    """Register detectors per tier, deploy them and build the HEC system facade.

    ``detectors`` maps tier names (``"iot"``, ``"edge"``, ``"cloud"``) to
    fitted detectors.
    """
    topology = topology or build_three_layer_topology()
    registry = DetectorRegistry()
    for tier, detector in detectors.items():
        registry.register(tier, detector)
    deployments = deploy_registry(
        registry,
        topology,
        workload=workload,
        quantize_below_layer=quantize_below_layer,
        execution_time_overrides=execution_time_overrides,
    )
    system = HECSystem(topology, deployments)
    return system, deployments


def per_layer_correctness(
    detectors_by_layer: Sequence[AnomalyDetector],
    windows: np.ndarray,
    labels: np.ndarray,
) -> List[np.ndarray]:
    """For each layer's detector, a binary array marking which windows it classifies correctly."""
    labels = np.asarray(labels, dtype=int)
    correctness = []
    for detector in detectors_by_layer:
        predictions = detector.predict(windows)
        correctness.append((predictions == labels).astype(float))
    return correctness


def compute_reward_table(
    system: HECSystem,
    detectors_by_layer: Sequence[AnomalyDetector],
    windows: np.ndarray,
    labels: np.ndarray,
    reward_fn: RewardFunction,
) -> np.ndarray:
    """The ``(n_windows, n_layers)`` reward table used to train the bandit.

    Correctness is evaluated per layer on every window; the delay of each
    action is the analytic expected end-to-end delay of that layer for the
    window shape at hand.
    """
    windows = np.asarray(windows, dtype=float)
    correctness = per_layer_correctness(detectors_by_layer, windows, labels)
    window_shape = windows.shape[1:]
    delays = np.asarray(
        [system.expected_delay_ms(layer, window_shape) for layer in range(system.n_layers)]
    )
    correct_matrix = np.stack(correctness, axis=1)
    delay_matrix = np.broadcast_to(delays, correct_matrix.shape)
    return reward_fn.batch(correct_matrix, delay_matrix)


def train_policy(
    system: HECSystem,
    detectors_by_layer: Sequence[AnomalyDetector],
    context_extractor: ContextExtractor,
    train_windows: np.ndarray,
    train_labels: np.ndarray,
    reward_fn: RewardFunction,
    hidden_units: int = 100,
    episodes: int = 30,
    learning_rate: float = 1e-2,
    entropy_weight: float = 0.01,
    seed: int = 0,
) -> tuple[PolicyNetwork, BanditEpisodeLog, np.ndarray]:
    """Build and train the policy network; returns (policy, log, reward_table)."""
    contexts = context_extractor.extract(train_windows)
    reward_table = compute_reward_table(
        system, detectors_by_layer, train_windows, train_labels, reward_fn
    )
    policy = PolicyNetwork(
        context_dim=contexts.shape[1],
        n_actions=system.n_layers,
        hidden_units=hidden_units,
        learning_rate=learning_rate,
        seed=seed,
    )
    trainer = ReinforceTrainer(policy, entropy_weight=entropy_weight, rng=seed)
    log = trainer.train(contexts, reward_table, episodes=episodes)
    return policy, log, reward_table


def build_schemes(
    system: HECSystem,
    policy: PolicyNetwork,
    context_extractor: ContextExtractor,
    fixed_layer_names: Optional[Sequence[str]] = None,
) -> List[SelectionScheme]:
    """The paper's schemes (K fixed layers, Successive, Adaptive) against one system.

    ``fixed_layer_names`` optionally labels the fixed-layer schemes (one name
    per layer, bottom-up); the default is the paper's three-layer naming.
    """
    if fixed_layer_names is not None and len(fixed_layer_names) != system.n_layers:
        raise ValueError(
            f"got {len(fixed_layer_names)} fixed-layer names for "
            f"{system.n_layers} layers"
        )
    schemes: List[SelectionScheme] = [
        FixedLayerScheme(
            system,
            layer,
            name=fixed_layer_names[layer] if fixed_layer_names is not None else None,
        )
        for layer in range(system.n_layers)
    ]
    schemes.append(SuccessiveScheme(system))
    schemes.append(AdaptiveScheme(system, policy, context_extractor))
    return schemes


def evaluate_all_schemes(
    dataset_name: str,
    system: HECSystem,
    policy: PolicyNetwork,
    context_extractor: ContextExtractor,
    test_windows: np.ndarray,
    test_labels: np.ndarray,
    reward_fn: RewardFunction,
    demo_panel: bool = True,
    fixed_layer_names: Optional[Sequence[str]] = None,
) -> tuple[Dict[str, SchemeEvaluation], List[SchemeComparisonRow], Optional[DemoPanelSeries]]:
    """Run every scheme on the test set; returns evaluations, Table II rows and the demo panel."""
    evaluations: Dict[str, SchemeEvaluation] = {}
    rows: List[SchemeComparisonRow] = []
    panel: Optional[DemoPanelSeries] = None
    for scheme in build_schemes(system, policy, context_extractor, fixed_layer_names):
        evaluation = evaluate_scheme(scheme, test_windows, test_labels, reward_fn=reward_fn)
        evaluations[scheme.name] = evaluation
        rows.append(scheme_comparison_row(dataset_name, evaluation))
        if demo_panel and isinstance(scheme, AdaptiveScheme):
            panel = demo_panel_from_evaluation(evaluation)
    return evaluations, rows, panel
