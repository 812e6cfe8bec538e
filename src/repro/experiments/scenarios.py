"""Built-in scenarios.

The first four reproduce the paper's two tracks — the fast configurations are
spelled out as spec literals, the ``-paper`` variants replace only the fields
that scale — and the last two go beyond the paper's 3-tier, one-family shape:

* ``hierarchical-edge-4tier`` — a four-layer hierarchy (sensor, gateway,
  edge server, cloud) with four autoencoders of increasing capacity and a
  four-action policy network;
* ``mixed-detectors`` — different detector *families* per tier: cheap
  autoencoders on the IoT and edge tiers, an LSTM-seq2seq model (via the
  ``expand-channel`` window adapter) on the cloud.

New scenarios register with :func:`~repro.experiments.registry.register_scenario`;
see ``examples/custom_scenario.py`` for a ~20-line template.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bandit.reward import PAPER_ALPHA_MULTIVARIATE, PAPER_ALPHA_UNIVARIATE
from repro.experiments.registry import register_scenario
from repro.experiments.spec import (
    DataSpec,
    DeploymentSpec,
    DetectorSpec,
    DeviceSpec,
    ExperimentSpec,
    LinkSpec,
    PolicySpec,
    TopologySpec,
)


@register_scenario("univariate-power", tags=("builtin", "fast", "paper-track"))
def univariate_power() -> ExperimentSpec:
    """Univariate power track (fast defaults): AE-IoT/Edge/Cloud on weekly windows.

    Sections II-III of the paper: weekly windows of a power series, 70 % of
    the normal windows train the three autoencoders, per-day statistics are
    the policy context and the reward uses ``alpha = 0.0005``.  Short series,
    small hidden layers and few epochs keep a full run to seconds.
    """
    return ExperimentSpec(
        name="univariate-power",
        dataset_name="univariate",
        description="Univariate power-consumption track: AE-IoT/Edge/Cloud on weekly windows.",
        seed=0,
        data=DataSpec(
            source="power",
            seed=7,
            weeks=40,
            samples_per_day=24,
            anomalous_day_fraction=0.06,
            noise_std=0.05,
            weekend_level=0.35,
        ),
        detectors=(
            DetectorSpec(family="autoencoder", hidden_sizes=(12,), epochs=30),
            DetectorSpec(family="autoencoder", hidden_sizes=(48, 24, 48), epochs=40),
            DetectorSpec(family="autoencoder", hidden_sizes=(64, 32, 16, 32, 64), epochs=80),
        ),
        deployment=DeploymentSpec(workload="univariate"),
        policy=PolicySpec(episodes=40, alpha=PAPER_ALPHA_UNIVARIATE, context="daily-stats",
                          context_segments=7),
    )


@register_scenario("multivariate-mhealth", tags=("builtin", "fast", "paper-track"))
def multivariate_mhealth() -> ExperimentSpec:
    """Multivariate MHEALTH-like track (fast defaults): LSTM/BiLSTM seq2seq detectors.

    18-channel activity windows that never straddle an activity/subject
    boundary; walking is normal, a fraction of every other activity is
    anomalous.  The IoT model's encoder state is the policy context and the
    reward uses ``alpha = 0.00035``.  Three subjects, short bouts and small
    LSTMs keep a full run to tens of seconds.
    """
    seq2seq = DetectorSpec(family="seq2seq", inference_mode="teacher_forcing",
                           batch_size=16, learning_rate=5e-3)
    return ExperimentSpec(
        name="multivariate-mhealth",
        dataset_name="multivariate",
        description=(
            "Multivariate MHEALTH-like track: LSTM/BiLSTM seq2seq detectors on "
            "activity windows."
        ),
        seed=0,
        data=DataSpec(
            source="mhealth",
            seed=11,
            n_subjects=3,
            seconds_per_activity=8.0,
            sampling_rate_hz=25.0,
            normal_activity="walking",
            noise_std=0.12,
            subject_variability=0.12,
            window_size=32,
            stride=16,
            anomaly_test_fraction=0.3,
            policy_anomaly_fraction=0.3,
        ),
        detectors=(
            replace(seq2seq, units=6, epochs=6),
            replace(seq2seq, units=24, epochs=10),
            replace(seq2seq, units=16, epochs=10),
        ),
        deployment=DeploymentSpec(workload="multivariate"),
        policy=PolicySpec(episodes=30, alpha=PAPER_ALPHA_MULTIVARIATE, context="iot-encoder"),
    )


@register_scenario("univariate-power-paper", tags=("builtin", "paper-scale", "paper-track"))
def univariate_power_paper() -> ExperimentSpec:
    """Univariate power track at the paper's dimensions (52 weeks, 15-minute sampling)."""
    fast = univariate_power()
    hidden_sizes = ((201,), (512, 256, 512), (512, 256, 128, 256, 512))
    return replace(
        fast,
        name="univariate-power-paper",
        data=replace(fast.data, weeks=52, samples_per_day=96, anomalous_day_fraction=0.05),
        detectors=tuple(
            replace(detector, hidden_sizes=sizes, epochs=epochs)
            for detector, sizes, epochs in zip(fast.detectors, hidden_sizes, (60, 80, 100))
        ),
        policy=replace(fast.policy, episodes=100),
    )


@register_scenario("multivariate-mhealth-paper", tags=("builtin", "paper-scale", "paper-track"))
def multivariate_mhealth_paper() -> ExperimentSpec:
    """Multivariate track at the paper's dimensions (10 subjects, 128-step windows)."""
    fast = multivariate_mhealth()
    return replace(
        fast,
        name="multivariate-mhealth-paper",
        data=replace(
            fast.data,
            n_subjects=10,
            seconds_per_activity=30.0,
            sampling_rate_hz=50.0,
            window_size=128,
            stride=64,
            anomaly_test_fraction=0.05,
            policy_anomaly_fraction=0.05,
        ),
        detectors=tuple(
            replace(detector, units=units, epochs=30, inference_mode="autoregressive")
            for detector, units in zip(fast.detectors, (50, 100, 200))
        ),
        policy=replace(fast.policy, episodes=100),
    )


@register_scenario("hierarchical-edge-4tier", tags=("builtin", "fast", "extended"))
def hierarchical_edge_4tier() -> ExperimentSpec:
    """Four-tier hierarchy (sensor -> gateway -> edge -> cloud), four autoencoders.

    Section II of the paper notes the approach "applies to any K in general";
    this scenario exercises K = 4 with per-tier device/link profiles adapted
    from ``examples/custom_hierarchy.py``.  Execution times come from the
    generic parameter-count model (no calibration table for this workload).
    """
    return ExperimentSpec(
        name="hierarchical-edge-4tier",
        description=(
            "4-tier hierarchical edge deployment on the power workload; "
            "inexpressible under the legacy 3-tier pipelines"
        ),
        seed=0,
        data=DataSpec(
            source="power",
            seed=7,
            weeks=40,
            samples_per_day=24,
            anomalous_day_fraction=0.06,
        ),
        detectors=(
            DetectorSpec(family="autoencoder", hidden_sizes=(8,), epochs=30,
                         name="AE-sensor"),
            DetectorSpec(family="autoencoder", hidden_sizes=(24, 12, 24), epochs=40,
                         name="AE-gateway"),
            DetectorSpec(family="autoencoder", hidden_sizes=(48, 24, 48), epochs=40,
                         name="AE-edge"),
            DetectorSpec(family="autoencoder", hidden_sizes=(64, 32, 16, 32, 64),
                         epochs=80, name="AE-cloud"),
        ),
        topology=TopologySpec(
            tier_names=("sensor", "gateway", "edge", "cloud"),
            devices=(
                DeviceSpec(name="Sensor MCU", tier="iot",
                           throughput_params_per_ms=2e3, memory_mb=64.0,
                           supports_fp32=False),
                DeviceSpec(name="IoT Gateway", tier="edge",
                           throughput_params_per_ms=1e4, memory_mb=512.0,
                           supports_fp32=False),
                DeviceSpec(name="Edge server", tier="edge",
                           throughput_params_per_ms=1e5, memory_mb=8192.0),
                DeviceSpec(name="Cloud datacentre", tier="cloud",
                           throughput_params_per_ms=1e6, memory_mb=262144.0),
            ),
            links=(
                LinkSpec(name="sensor-gateway", one_way_latency_ms=2.0,
                         bandwidth_mbps=50.0),
                LinkSpec(name="gateway-edge", one_way_latency_ms=15.0,
                         bandwidth_mbps=200.0),
                LinkSpec(name="edge-cloud", one_way_latency_ms=110.0,
                         bandwidth_mbps=1000.0),
            ),
        ),
        deployment=DeploymentSpec(workload="power-4tier", quantize_below_layer=2),
        policy=PolicySpec(episodes=40, alpha=0.002, context="daily-stats",
                          context_segments=7),
    )


@register_scenario("mixed-detectors", tags=("builtin", "fast", "extended"))
def mixed_detectors() -> ExperimentSpec:
    """Mixed detector families: autoencoders on IoT/edge, LSTM-seq2seq on the cloud.

    The seq2seq cloud model reads each univariate weekly window as a
    one-channel sequence (``(n, T)`` as ``(n, T, 1)``), a layout the window
    shape sets; the paper's tracks use one family each.
    """
    return ExperimentSpec(
        name="mixed-detectors",
        description=(
            "AE on IoT/edge + seq2seq on cloud over one univariate workload; "
            "inexpressible under the legacy one-family-per-track pipelines"
        ),
        seed=0,
        data=DataSpec(
            source="power",
            seed=7,
            weeks=40,
            samples_per_day=24,
            anomalous_day_fraction=0.06,
        ),
        detectors=(
            DetectorSpec(family="autoencoder", hidden_sizes=(12,), epochs=30),
            DetectorSpec(family="autoencoder", hidden_sizes=(48, 24, 48), epochs=40),
            DetectorSpec(
                family="seq2seq",
                units=24,
                inference_mode="teacher_forcing",
                epochs=8,
                batch_size=16,
                learning_rate=5e-3,
            ),
        ),
        deployment=DeploymentSpec(workload="univariate"),
        policy=PolicySpec(episodes=40, alpha=0.0005, context="daily-stats",
                          context_segments=7),
    )
