"""Built-in adaptation scenario: drift, degradation, gated recovery.

``adapt-1k-drift-recovery`` is the fleet-1k-drift workload with the model
lifecycle switched on: a thousand power-metering devices drift away from the
training distribution, the deployed detectors' windowed F1 collapses under
false positives, a drift monitor fires, the affected tier is fine-tuned on a
reservoir of recent clean windows, the candidate passes the shadow gate and
is hot-swapped (FP16-quantised below the cloud) — after which the windowed
online F1 recovers.  The recovery contract (post-swap F1 strictly above the
trough and within 10% of the pre-drift level, deterministically under a
fixed seed) is pinned by the tests and by the recorded
``report-adapt-1k-drift-recovery`` golden.

The module is imported (and thereby registered) by :mod:`repro.experiments`,
next to the offline and fleet built-ins.
"""

from __future__ import annotations

from dataclasses import replace

from repro.adapt.spec import AdaptSpec
from repro.experiments.registry import register_scenario
from repro.experiments.scenarios import univariate_power
from repro.experiments.spec import ExperimentSpec
from repro.fleet.spec import FleetSpec, MutatorSpec


@register_scenario("adapt-1k-drift-recovery", tags=("fleet", "adapt", "extended"))
def adapt_1k_drift_recovery() -> ExperimentSpec:
    """1000 drifting devices with drift-triggered retraining and hot-swap."""
    return replace(
        univariate_power(),
        name="adapt-1k-drift-recovery",
        description=(
            "thousand-device power fleet under concept drift with the "
            "adaptation loop closed: monitors catch the F1 collapse, a gated "
            "online retrain hot-swaps a recalibrated checkpoint and the "
            "windowed F1 recovers to near its pre-drift level"
        ),
        fleet=FleetSpec(
            n_devices=1000,
            ticks=48,
            arrival_rate=0.2,
            anomaly_rate=0.08,
            metrics_window=4,
            # The stream shifts to a new regime: drift ramps up and plateaus
            # at tick 20, so a recalibrated checkpoint can actually converge.
            mutators=(
                MutatorSpec(
                    kind="concept-drift",
                    drift_per_tick=0.06,
                    drift_saturation_tick=20,
                ),
            ),
        ),
        adapt=AdaptSpec(
            monitors=("page-hinkley", "f1-floor"),
            ph_delta=0.01,
            ph_threshold=4.0,
            f1_floor_fraction=0.7,
            f1_baseline_windows=2,
            warmup_ticks=8,
            cooldown_ticks=12,
            reservoir_size=256,
            holdout_size=192,
            min_retrain_windows=48,
            retrain_epochs=6,
            retrain_batch_size=16,
            retrain_learning_rate=1e-3,
        ),
    )
