"""Contextual-bandit anomaly detection for IoT data in hierarchical edge computing.

This package is a from-scratch reproduction of the ICDCS 2020 demo paper
"Contextual-Bandit Anomaly Detection for IoT Data in Distributed Hierarchical
Edge Computing" (Ngo, Luo, Chaouchi, Quek).

The package is organised into the following subpackages:

``repro.nn``
    A pure-NumPy neural-network library (dense layers, LSTM, bidirectional
    LSTM, sequence-to-sequence models, optimisers, losses, quantisation).
``repro.data``
    Synthetic dataset generators that mirror the structure of the two public
    datasets used by the paper (univariate power consumption and the
    multivariate MHEALTH activity dataset), plus windowing and preprocessing.
``repro.detectors``
    The anomaly-detection models of the paper: the autoencoder family for
    univariate data, the LSTM-seq2seq family for multivariate data, and the
    Gaussian log-probability-density anomaly scorer.
``repro.bandit``
    The contextual-bandit model-selection core: context extraction, the policy
    network, the REINFORCE trainer with a reinforcement-comparison baseline
    and the delay-aware reward function.
``repro.hec``
    A simulated hierarchical edge computing substrate: device profiles,
    network links, topology, deployment and end-to-end delay accounting.
``repro.schemes``
    The five model-selection schemes evaluated in the paper (IoT, Edge,
    Cloud, Successive, Adaptive).
``repro.evaluation``
    Detection metrics, the experiment runner and the generators for Table I,
    Table II and the demo result panel (Fig. 3).
``repro.experiments``
    The declarative experiment API: serialisable ``ExperimentSpec`` trees, the
    stage-based ``ExperimentRunner`` and the scenario registry behind the
    ``repro run / list / describe`` CLI.
"""

from repro.version import __version__
from repro.exceptions import (
    ReproError,
    ConfigurationError,
    NotFittedError,
    ShapeError,
    DeploymentError,
    SchedulingError,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "NotFittedError",
    "ShapeError",
    "DeploymentError",
    "SchedulingError",
]
