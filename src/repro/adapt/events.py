"""The adaptation timeline: what the lifecycle machinery did, and when.

Three event kinds flow out of the adaptation loop — a monitor detecting drift
(:class:`DriftEvent`), a drift-triggered retraining attempt passing or failing
the shadow-evaluation gate (:class:`RetrainEvent`), and a gated candidate
being hot-swapped into the running system (:class:`SwapEvent`).  They are
collected into an :class:`AdaptationTimeline` that rides on the
:class:`~repro.fleet.report.FleetReport`, so a streaming run's self-healing
behaviour is part of its serialisable result.

Wall-clock timing deliberately stays *out* of these records (mirroring the
fleet report): two runs of the same spec must produce equal timelines, so the
benchmark harness measures retrain/swap latency separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.utils.serialization import JsonRecord


@dataclass(frozen=True)
class DriftEvent(JsonRecord):
    """One monitor deciding that a tier's score stream has shifted."""

    tick: int
    layer: int
    tier: str
    monitor: str
    #: The statistic that crossed the monitor's threshold.
    statistic: float
    threshold: float


@dataclass(frozen=True)
class RetrainEvent(JsonRecord):
    """One drift-triggered fine-tuning attempt and its gate decision."""

    tick: int
    layer: int
    tier: str
    #: Windows the candidate was fine-tuned on (reservoir snapshot size).
    n_train_windows: int
    #: Labelled holdout windows the shadow gate scored both models on.
    n_holdout_windows: int
    incumbent_f1: float
    candidate_f1: float
    #: Whether the candidate beat the incumbent and was promoted.
    accepted: bool
    #: Registry version of the candidate (``None`` when the gate rejected it).
    candidate_version: Optional[str] = None


@dataclass(frozen=True)
class SwapEvent(JsonRecord):
    """A promoted checkpoint atomically replacing a tier's detector."""

    tick: int
    layer: int
    tier: str
    from_version: str
    to_version: str
    #: Whether the deployed candidate was FP16-quantised (IoT/edge tiers).
    quantized: bool


@dataclass(frozen=True)
class AdaptationTimeline(JsonRecord):
    """Everything the adaptation loop did during one streaming run."""

    drifts: Tuple[DriftEvent, ...] = ()
    retrains: Tuple[RetrainEvent, ...] = ()
    swaps: Tuple[SwapEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "drifts", tuple(self.drifts))
        object.__setattr__(self, "retrains", tuple(self.retrains))
        object.__setattr__(self, "swaps", tuple(self.swaps))
