"""Built-in fleet scenarios.

Each scenario is an ordinary registered :class:`~repro.experiments.spec.ExperimentSpec`
whose ``fleet`` node describes the streaming workload, so the usual machinery
(``repro describe``, ``--set`` overrides, ``--seed``) applies unchanged and
``repro fleet <scenario>`` streams it after training:

* ``fleet-1k-drift`` — a thousand power-metering devices whose streams slowly
  drift away from the training distribution;
* ``fleet-burst-storm`` — fleet-wide anomaly storms hitting every device at
  once, stressing the upper tiers in bursts;
* ``fleet-churn-mixed-detectors`` — a churning fleet (devices dropping out and
  returning, windows phase-jittered) served by the mixed AE/seq2seq
  deployment;
* ``fleet-link-outage`` — the edge->cloud uplink partitions mid-run and the
  system fails over to the best reachable tier (retry/timeout accounting);
* ``fleet-degraded-uplink`` — the device->edge uplink degrades (latency x6)
  for a stretch of the run;
* ``fleet-sensor-faults`` — stuck-at, spike and dropout sensor faults corrupt
  the observable signal while the ground truth stays intact;
* ``fleet-crash-resume`` — a sharded run whose shard 1 crashes mid-run and a
  process kill for the CI crash/resume smoke test.

The module is imported (and thereby registered) by :mod:`repro.experiments`,
next to the offline built-ins.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.registry import register_scenario
from repro.experiments.scenarios import mixed_detectors, univariate_power
from repro.experiments.spec import ExperimentSpec
from repro.fleet.faults import FaultEvent, FaultSpec
from repro.fleet.spec import FleetSpec, MutatorSpec


@register_scenario("fleet-1k-drift", tags=("fleet", "extended"))
def fleet_1k_drift() -> ExperimentSpec:
    """1000 drifting power devices streaming through the trained 3-tier system."""
    return replace(
        univariate_power(),
        name="fleet-1k-drift",
        description=(
            "thousand-device power fleet under gradual concept drift; "
            "windowed online metrics show the deployed detectors degrading"
        ),
        fleet=FleetSpec(
            n_devices=1000,
            ticks=40,
            arrival_rate=0.2,
            anomaly_rate=0.08,
            metrics_window=8,
            mutators=(MutatorSpec(kind="concept-drift", drift_per_tick=0.02),),
        ),
    )


@register_scenario("fleet-burst-storm", tags=("fleet", "extended"))
def fleet_burst_storm() -> ExperimentSpec:
    """Fleet-wide anomaly storms: bursts of anomalous windows every few ticks."""
    return replace(
        univariate_power(),
        name="fleet-burst-storm",
        description=(
            "200-device power fleet hit by periodic fleet-wide anomaly storms "
            "(anomaly rate jumps to 60% for 4 of every 16 ticks)"
        ),
        fleet=FleetSpec(
            n_devices=200,
            ticks=48,
            arrival_rate=0.5,
            anomaly_rate=0.05,
            metrics_window=4,
            mutators=(
                MutatorSpec(
                    kind="anomaly-burst",
                    burst_period=16,
                    burst_ticks=4,
                    burst_anomaly_rate=0.6,
                ),
            ),
        ),
    )


@register_scenario("fleet-churn-mixed-detectors", tags=("fleet", "extended"))
def fleet_churn_mixed_detectors() -> ExperimentSpec:
    """A churning, phase-jittered fleet on the mixed AE/seq2seq deployment."""
    return replace(
        mixed_detectors(),
        name="fleet-churn-mixed-detectors",
        description=(
            "300-device fleet with churn (30% of devices cycle offline) and "
            "per-device phase jitter, served by AE tiers plus a seq2seq cloud"
        ),
        fleet=FleetSpec(
            n_devices=300,
            ticks=32,
            arrival_rate=0.3,
            anomaly_rate=0.1,
            metrics_window=8,
            mutators=(
                MutatorSpec(
                    kind="device-churn",
                    churn_fraction=0.3,
                    offline_ticks=4,
                    churn_period=16,
                ),
                MutatorSpec(kind="phase-jitter", max_shift=3),
            ),
        ),
    )


@register_scenario("fleet-link-outage", tags=("fleet", "faults", "extended"))
def fleet_link_outage() -> ExperimentSpec:
    """The edge->cloud uplink partitions mid-run; requests fail over downward.

    Recovery contract (pinned by the fault-tolerance tests): while the link is
    down, tier utilisation shifts off the cloud onto the best reachable tier,
    every redirected request is charged ``failover_retries * retry_timeout_ms``
    of retry delay, and detection quality holds at the serving tier's level.
    """
    return replace(
        univariate_power(),
        name="fleet-link-outage",
        description=(
            "200-device power fleet whose edge->cloud uplink is partitioned "
            "for ticks [12, 28); cloud-bound requests fail over to the edge "
            "with retry/timeout delay accounting"
        ),
        fleet=FleetSpec(
            n_devices=200,
            ticks=40,
            arrival_rate=0.4,
            anomaly_rate=0.08,
            metrics_window=8,
        ),
        faults=FaultSpec(
            events=(FaultEvent(kind="link-down", at_tick=12, until_tick=28, link=1),),
            failover_retries=2,
            retry_timeout_ms=150.0,
        ),
    )


@register_scenario("fleet-degraded-uplink", tags=("fleet", "faults", "extended"))
def fleet_degraded_uplink() -> ExperimentSpec:
    """The device->edge uplink degrades (latency x6) for a stretch of the run."""
    return replace(
        univariate_power(),
        name="fleet-degraded-uplink",
        description=(
            "200-device power fleet whose device->edge uplink runs at 6x "
            "latency for ticks [8, 24); escalated requests pay the degraded "
            "transfer delay but no tier becomes unreachable"
        ),
        fleet=FleetSpec(
            n_devices=200,
            ticks=32,
            arrival_rate=0.4,
            anomaly_rate=0.08,
            metrics_window=8,
        ),
        faults=FaultSpec(
            events=(
                FaultEvent(kind="link-degrade", at_tick=8, until_tick=24, link=0, factor=6.0),
            ),
        ),
    )


@register_scenario("fleet-sensor-faults", tags=("fleet", "faults", "extended"))
def fleet_sensor_faults() -> ExperimentSpec:
    """Stuck-at, spike and dropout sensor faults corrupt the observable signal."""
    return replace(
        univariate_power(),
        name="fleet-sensor-faults",
        description=(
            "200-device power fleet with faulty sensors: 10% stuck at a "
            "constant reading, random single-sample spikes, and 10% of "
            "devices going silent mid-run; labels stay intact so the online "
            "metrics expose the detection-quality cost of sensor faults"
        ),
        fleet=FleetSpec(
            n_devices=200,
            ticks=32,
            arrival_rate=0.4,
            anomaly_rate=0.08,
            metrics_window=8,
            mutators=(
                MutatorSpec(kind="sensor-stuck", stuck_fraction=0.1, stuck_scale=1.0),
                MutatorSpec(kind="sensor-spike", spike_rate=0.05, spike_magnitude=6.0),
                MutatorSpec(kind="sensor-dropout", dropout_fraction=0.1, dropout_horizon=32),
            ),
        ),
    )


@register_scenario("fleet-shard-crash", tags=("fleet", "faults", "extended"))
def fleet_shard_crash() -> ExperimentSpec:
    """A sharded fleet whose shard 1 worker crashes mid-run and is re-executed.

    Recovery contract (pinned by the fault-tolerance tests): the sharded
    run re-runs only the lost shard (from its last checkpoint when one
    exists) and merges it at-most-once — the final report carries the exact
    same counts as a crash-free run.
    """
    return replace(
        univariate_power(),
        name="fleet-shard-crash",
        description=(
            "128-device fleet across 2 shards; the shard-1 worker crashes at "
            "tick 9 and the engine recovers it without double-counting"
        ),
        fleet=FleetSpec(
            n_devices=128,
            ticks=24,
            arrival_rate=0.5,
            anomaly_rate=0.1,
            metrics_window=4,
            n_shards=2,
        ),
        faults=FaultSpec(
            events=(FaultEvent(kind="shard-crash", at_tick=9, shard=1),),
        ),
    )


@register_scenario("fleet-crash-resume", tags=("fleet", "faults", "extended"))
def fleet_crash_resume() -> ExperimentSpec:
    """The streaming process is SIGKILLed mid-run; ``repro resume`` continues it.

    Recovery contract (pinned by the fault-tolerance tests and the CI
    crash/resume smoke job): run with ``--checkpoint-dir``/``--checkpoint-cadence``,
    die at tick 13, resume from the newest checkpoint — the final report is
    bit-identical to an uninterrupted run of the same spec.
    """
    return replace(
        univariate_power(),
        name="fleet-crash-resume",
        description=(
            "64-device power fleet hard-killed (SIGKILL) at tick 13; resuming "
            "from the last durable checkpoint reproduces the uninterrupted "
            "run bit-for-bit"
        ),
        fleet=FleetSpec(
            n_devices=64,
            ticks=24,
            arrival_rate=0.5,
            anomaly_rate=0.1,
            metrics_window=4,
        ),
        faults=FaultSpec(
            events=(FaultEvent(kind="process-kill", at_tick=13),),
        ),
    )
