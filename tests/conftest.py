"""Shared fixtures for the test suite.

Expensive artefacts (trained tiny detectors, pipeline runs) are session-scoped
so they are built once and reused by many tests.  All fixtures use fixed seeds
so the suite is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.datasets import LabeledWindows
from repro.data.mhealth import MHealthConfig, generate_mhealth_dataset
from repro.data.power import PowerDatasetConfig, generate_power_dataset, weekly_windows
from repro.data.preprocessing import StandardScaler
from repro.data.splits import anomaly_detection_split
from repro.data.windowing import windows_from_dataset
from repro.detectors.autoencoder import AutoencoderDetector
from repro.detectors.lstm_seq2seq import Seq2SeqDetector
from repro.hec.deployment import deploy_detectors
from repro.hec.simulation import HECSystem
from repro.hec.topology import build_three_layer_topology
from repro.experiments import ExperimentRunner, apply_overrides, get_scenario

from goldens import assert_matches_golden


def pytest_addoption(parser):
    parser.addoption(
        "--record-goldens",
        action="store_true",
        help="rewrite the files under tests/goldens/ whose payload changed "
        "instead of comparing against them",
    )


@pytest.fixture()
def golden(request):
    """``golden(name, payload)``: compare against (or record) a golden file."""
    record = request.config.getoption("--record-goldens")
    return lambda name, payload: assert_matches_golden(name, payload, record=record)


@pytest.fixture()
def cpus(monkeypatch):
    """``cpus(n)``: the CPU count a multi-shard fleet run sees — with 1 its
    shards run serially in-process, with more they fork the worker pool."""
    from repro.fleet import sharding

    def set_cpus(n):
        monkeypatch.setattr(sharding, "available_cpus", lambda: n)

    return set_cpus


@pytest.fixture(scope="session")
def rng():
    """A deterministic NumPy generator for ad-hoc randomness in tests."""
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# Univariate data fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def power_config():
    """A small synthetic power-dataset configuration (fast to generate)."""
    return PowerDatasetConfig(weeks=30, samples_per_day=24, anomalous_day_fraction=0.05, seed=3)


@pytest.fixture(scope="session")
def power_dataset(power_config):
    """The generated small power dataset."""
    return generate_power_dataset(power_config)


@pytest.fixture(scope="session")
def power_windows(power_dataset, power_config) -> LabeledWindows:
    """Weekly windows cut from the small power dataset."""
    windows, labels = weekly_windows(power_dataset, power_config.samples_per_day)
    return LabeledWindows(windows=windows, labels=labels)


@pytest.fixture(scope="session")
def power_split(power_windows):
    """The anomaly-detection split (normal train / mixed test) of the power windows."""
    return anomaly_detection_split(power_windows, rng=0, anomaly_test_fraction=1.0)


@pytest.fixture(scope="session")
def power_scaled(power_split):
    """(train_windows, test_windows, test_labels) standardised on the training set."""
    scaler = StandardScaler().fit(power_split.train.windows)
    return (
        scaler.transform(power_split.train.windows),
        scaler.transform(power_split.test.windows),
        power_split.test.labels,
    )


# ---------------------------------------------------------------------------
# Multivariate data fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def mhealth_config():
    """A small synthetic MHEALTH configuration (3 subjects, short bouts)."""
    return MHealthConfig(n_subjects=2, seconds_per_activity=6.0, sampling_rate_hz=20.0, seed=5)


@pytest.fixture(scope="session")
def mhealth_dataset(mhealth_config):
    """The generated small MHEALTH-like dataset."""
    return generate_mhealth_dataset(mhealth_config)


@pytest.fixture(scope="session")
def mhealth_windows(mhealth_dataset) -> LabeledWindows:
    """Activity-pure windows (24 steps, stride 12) from the small MHEALTH dataset."""
    return windows_from_dataset(mhealth_dataset, window_size=24, stride=12, purity="activity")


# ---------------------------------------------------------------------------
# Trained detector fixtures (tiny but real)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def trained_autoencoder(power_scaled) -> AutoencoderDetector:
    """A small autoencoder detector trained on the normal power windows."""
    train_windows, _test_windows, _test_labels = power_scaled
    detector = AutoencoderDetector(
        window_size=train_windows.shape[1],
        hidden_sizes=(16,),
        name="AE-test",
        seed=0,
    )
    detector.fit(train_windows, epochs=120, batch_size=8, learning_rate=3e-3)
    return detector


@pytest.fixture(scope="session")
def trained_seq2seq(mhealth_windows) -> Seq2SeqDetector:
    """A small seq2seq detector trained on normal MHEALTH windows."""
    split = anomaly_detection_split(mhealth_windows, rng=0, anomaly_test_fraction=0.2)
    scaler = StandardScaler().fit(split.train.windows)
    detector = Seq2SeqDetector(
        n_channels=mhealth_windows.windows.shape[2],
        units=8,
        dropout_rate=0.0,
        inference_mode="teacher_forcing",
        name="seq2seq-test",
        seed=0,
    )
    detector.fit(scaler.transform(split.train.windows), epochs=4, batch_size=16, learning_rate=5e-3)
    return detector


# ---------------------------------------------------------------------------
# HEC fixtures
# ---------------------------------------------------------------------------

@pytest.fixture()
def topology():
    """A fresh three-layer topology (per test, so link state is isolated)."""
    return build_three_layer_topology()


@pytest.fixture(scope="session")
def univariate_hec(power_scaled):
    """(system, deployments, detectors, test_windows, test_labels) for scheme tests.

    Three tiny autoencoders of increasing capacity (``detectors``, bottom-up)
    trained on the same normal windows, deployed with the paper's calibrated
    execution times.
    """
    train_windows, test_windows, test_labels = power_scaled
    window_size = train_windows.shape[1]
    detectors = []
    for tier, hidden in (("iot", (4,)), ("edge", (16,)), ("cloud", (32, 16, 32))):
        detector = AutoencoderDetector(
            window_size=window_size,
            hidden_sizes=hidden,
            name=f"AE-{tier}",
            seed=7,
        )
        detector.fit(train_windows, epochs=100, batch_size=8, learning_rate=3e-3)
        detectors.append(detector)
    topology = build_three_layer_topology()
    deployments = deploy_detectors(detectors, topology, workload="univariate")
    return HECSystem(topology, deployments), deployments, detectors, test_windows, test_labels


# ---------------------------------------------------------------------------
# Pipeline runs (one per scenario the Table-II goldens cover)
# ---------------------------------------------------------------------------

#: Overrides that shrink the extended scenarios to test size.
TINY_4TIER = {
    "data.weeks": "10",
    "detectors.0.epochs": "3",
    "detectors.1.epochs": "3",
    "detectors.2.epochs": "3",
    "detectors.3.epochs": "3",
    "policy.episodes": "3",
}
TINY_MIXED = {
    "data.weeks": "10",
    "detectors.0.epochs": "3",
    "detectors.1.epochs": "3",
    "detectors.2.epochs": "2",
    "policy.episodes": "3",
}


@pytest.fixture(scope="session")
def univariate_result():
    """One shared fast run of the univariate track."""
    spec = apply_overrides(get_scenario("univariate-power"), {
        "data.weeks": 30, "data.anomalous_day_fraction": 0.08, "policy.episodes": 30,
    })
    return ExperimentRunner(spec).run()


@pytest.fixture(scope="session")
def multivariate_result():
    """One shared fast run of the multivariate track."""
    return ExperimentRunner(get_scenario("multivariate-mhealth")).run()


@pytest.fixture(scope="session")
def four_tier_result():
    """One shared tiny run of the K = 4 scenario."""
    spec = apply_overrides(get_scenario("hierarchical-edge-4tier"), TINY_4TIER)
    return ExperimentRunner(spec).run()


@pytest.fixture(scope="session")
def mixed_result():
    """One shared tiny run of the mixed AE + seq2seq scenario."""
    spec = apply_overrides(get_scenario("mixed-detectors"), TINY_MIXED)
    return ExperimentRunner(spec).run()
