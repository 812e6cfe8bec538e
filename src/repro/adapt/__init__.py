"""Adaptation subsystem: the model lifecycle for streaming fleets.

After PR 3 the fleet engine streams non-stationary traffic (concept drift,
bursts, churn) into detectors that were fitted once and frozen forever.  This
package closes the loop — the production meaning of the paper's *adaptive*
anomaly detection:

* :mod:`repro.adapt.monitors` — bounded-memory drift monitors (Page–Hinkley
  and a windowed-F1 floor) over per-tier score streams;
* :mod:`repro.adapt.registry` — a content-addressed, versioned model registry
  with lineage metadata and promote/rollback semantics;
* :mod:`repro.adapt.controller` — the per-tick lifecycle, driven by the
  fleet engine: it feeds the monitors, fine-tunes a drifted tier's detector
  on a keyed sample of clean windows behind a shadow-evaluation gate, and
  hot-swaps an accepted (FP16-quantised below the cloud) candidate into the
  running HEC system at a tick boundary;
* :mod:`repro.adapt.spec` — the declarative :class:`~repro.adapt.spec.AdaptSpec`
  hanging off :class:`~repro.experiments.spec.ExperimentSpec` as ``adapt``.

The registered ``adapt-1k-drift-recovery`` scenario
(:mod:`repro.adapt.scenarios`) demonstrates the loop end to end: drift
degrades the windowed F1, a monitor fires, the gated retrain hot-swaps a
recalibrated checkpoint, and the online F1 recovers.
"""

from repro.adapt.controller import AdaptationController
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
)
from repro.adapt.registry import ModelRegistry, ModelVersion
from repro.adapt.spec import AdaptSpec

__all__ = [
    "AdaptSpec",
    "AdaptationController",
    "AdaptationTimeline",
    "DriftEvent",
    "F1FloorMonitor",
    "MONITOR_KINDS",
    "ModelRegistry",
    "ModelVersion",
    "PageHinkleyMonitor",
    "RetrainEvent",
    "ScoreMonitor",
    "SwapEvent",
]
