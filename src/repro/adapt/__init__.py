"""Adaptation subsystem: the model lifecycle for streaming fleets.

After PR 3 the fleet engine streams non-stationary traffic (concept drift,
bursts, churn) into detectors that were fitted once and frozen forever.  This
package closes the loop — the production meaning of the paper's *adaptive*
anomaly detection:

* :mod:`repro.adapt.monitors` — bounded-memory drift monitors (Page–Hinkley
  and a windowed-F1 floor) over per-tier score streams;
* :mod:`repro.adapt.registry` — a content-addressed, versioned model registry
  with lineage metadata and promote/rollback semantics;
* :mod:`repro.adapt.retrainer` — drift-triggered fine-tuning on a keyed
  sample of clean windows, behind a shadow-evaluation gate;
* :mod:`repro.adapt.deployer` — atomic hot-swap of promoted (optionally
  FP16-quantised) checkpoints into the running HEC system at tick boundaries;
* :mod:`repro.adapt.controller` — the per-tick state machine gluing the four
  together, driven by the fleet engine;
* :mod:`repro.adapt.spec` — the declarative :class:`~repro.adapt.spec.AdaptSpec`
  hanging off :class:`~repro.experiments.spec.ExperimentSpec` as ``adapt``.

The registered ``adapt-1k-drift-recovery`` scenario
(:mod:`repro.adapt.scenarios`) demonstrates the loop end to end: drift
degrades the windowed F1, a monitor fires, the gated retrain hot-swaps a
recalibrated checkpoint, and the online F1 recovers.
"""

from repro.adapt.controller import AdaptationController
from repro.adapt.deployer import HotSwapDeployer
from repro.adapt.events import (
    AdaptationTimeline,
    DriftEvent,
    RetrainEvent,
    SwapEvent,
)
from repro.adapt.monitors import (
    MONITOR_KINDS,
    F1FloorMonitor,
    PageHinkleyMonitor,
    ScoreMonitor,
    build_monitor,
)
from repro.adapt.registry import ModelRegistry, ModelVersion
from repro.adapt.retrainer import (
    OnlineRetrainer,
    RetrainOutcome,
    detection_f1,
)
from repro.adapt.spec import AdaptSpec

__all__ = [
    "AdaptSpec",
    "AdaptationController",
    "AdaptationTimeline",
    "DriftEvent",
    "F1FloorMonitor",
    "HotSwapDeployer",
    "MONITOR_KINDS",
    "ModelRegistry",
    "ModelVersion",
    "OnlineRetrainer",
    "PageHinkleyMonitor",
    "RetrainEvent",
    "RetrainOutcome",
    "ScoreMonitor",
    "SwapEvent",
    "build_monitor",
    "detection_f1",
]
