"""Declarative adaptation specifications.

An :class:`AdaptSpec` describes the model-lifecycle loop attached to a fleet
streaming run: which drift monitors watch the per-tier score streams, how the
drift-triggered retrainer samples recent windows and fine-tunes, what the
shadow-evaluation gate requires before promotion, and whether hot-swapped
checkpoints are FP16-quantised for the lower tiers.  Like the rest of the
spec tree it is pure data — frozen, comparable, JSON round-trippable,
``--set``-able — and hangs off
:class:`~repro.experiments.spec.ExperimentSpec` as the optional ``adapt``
node consumed by the runner's ``stream`` stage.

This module deliberately imports nothing from :mod:`repro.experiments` so the
spec tree can import it without cycles (the same rule as
:mod:`repro.fleet.spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.adapt.monitors import MONITOR_KINDS
from repro.exceptions import ConfigurationError
from repro.utils.serialization import JsonRecord


@dataclass(frozen=True)
class AdaptSpec(JsonRecord):
    """The adaptation loop attached to a streaming experiment.

    ``seed`` is the loop's own entropy; the controller folds it with the
    experiment's master seed, so reseeding an experiment reseeds the
    reservoirs without coupling them to the device streams.
    """

    #: Monitor kinds watching each tier (see :data:`~repro.adapt.monitors.MONITOR_KINDS`).
    monitors: Tuple[str, ...] = ("page-hinkley", "f1-floor")
    # page-hinkley knobs
    ph_delta: float = 0.005
    ph_threshold: float = 1.0
    # f1-floor knobs
    f1_floor_fraction: float = 0.7
    f1_baseline_windows: int = 2
    #: Ticks before any monitor may fire (baselines form on healthy traffic).
    warmup_ticks: int = 8
    #: Ticks a tier stays quiet after a retrain attempt (accepted or not).
    cooldown_ticks: int = 8
    #: Capacity of the per-tier reservoir of recent clean windows.
    reservoir_size: int = 256
    #: Capacity of the per-tier labelled holdout reservoir (shadow gate).
    holdout_size: int = 128
    #: Minimum reservoir fill before a retrain is attempted.
    min_retrain_windows: int = 32
    # fine-tuning knobs
    retrain_epochs: int = 5
    retrain_batch_size: int = 16
    retrain_learning_rate: float = 1e-3
    #: The gate: candidate F1 must exceed incumbent F1 by more than this.
    min_improvement: float = 0.0
    #: FP16-quantise swapped checkpoints on tiers whose deployment is quantised.
    quantize_swapped: bool = True
    #: On-disk model registry root; ``None`` uses a run-scoped temporary dir.
    registry_dir: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "monitors", tuple(str(m) for m in self.monitors))
        if not self.monitors:
            raise ConfigurationError("adapt.monitors needs at least one monitor kind")
        unknown = sorted(set(self.monitors) - set(MONITOR_KINDS))
        if unknown:
            raise ConfigurationError(
                f"unknown monitor kind(s) {unknown}; valid kinds: {MONITOR_KINDS}"
            )
        if self.warmup_ticks < 0 or self.cooldown_ticks < 0:
            raise ConfigurationError(
                f"warmup_ticks and cooldown_ticks must be non-negative, got "
                f"{self.warmup_ticks}/{self.cooldown_ticks}"
            )
        if self.reservoir_size <= 0 or self.holdout_size <= 0:
            raise ConfigurationError(
                f"reservoir_size and holdout_size must be positive, got "
                f"{self.reservoir_size}/{self.holdout_size}"
            )
        if self.min_retrain_windows <= 1:
            raise ConfigurationError(
                f"min_retrain_windows must exceed 1, got {self.min_retrain_windows}"
            )
        if self.retrain_epochs <= 0 or self.retrain_batch_size <= 0:
            raise ConfigurationError(
                f"retrain_epochs and retrain_batch_size must be positive, got "
                f"{self.retrain_epochs}/{self.retrain_batch_size}"
            )
        if self.retrain_learning_rate <= 0:
            raise ConfigurationError(
                f"retrain_learning_rate must be positive, got {self.retrain_learning_rate}"
            )
        if self.min_improvement < 0:
            raise ConfigurationError(
                f"min_improvement must be non-negative, got {self.min_improvement}"
            )
