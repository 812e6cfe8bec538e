"""Fleet streaming subsystem: workload generators, the streaming engine
and online evaluation for thousand-device HEC simulations.

The offline experiments replay one pre-windowed dataset; this package turns
the same trained system into the paper's *premise* — an IoT fleet continuously
streaming sensor windows:

* :mod:`repro.fleet.spec` — declarative :class:`FleetSpec`/:class:`MutatorSpec`
  (the ``fleet`` node of an :class:`~repro.experiments.spec.ExperimentSpec`);
* :mod:`repro.fleet.devices` — :class:`DeviceFleet` workload generators: the
  arrival stream as a pure function of (seed, device block, tick), one
  struct-of-arrays :class:`ColumnarArrivals` batch per tick;
* :mod:`repro.fleet.mutators` — concept drift, bursty anomaly episodes,
  device churn, phase jitter and sensor faults, as batch hooks;
* :mod:`repro.fleet.engine` — the event-clocked :class:`FleetEngine` (one
  struct-of-arrays streaming loop, pinned by goldens recorded from the
  per-window loop it replaced);
* :mod:`repro.fleet.sharding` — how the engine runs a spec with
  ``n_shards > 1``: one-shard engines over a device partition, in a per-run
  worker pool (zero-copy shard payloads under ``fork``) or serially;
* :mod:`repro.fleet.metrics` / :mod:`repro.fleet.report` — bounded-memory
  online evaluation and the serialisable :class:`FleetReport`.

Fleet *scenarios* live in :mod:`repro.fleet.scenarios`, registered into the
shared scenario registry by :mod:`repro.experiments` (not imported here, to
keep the import graph acyclic).
"""

from repro.fleet.devices import ColumnarArrivals, DeviceFleet, WindowPool
from repro.fleet.engine import FleetEngine
from repro.fleet.metrics import DelayReservoir, StreamingMetrics
from repro.fleet.mutators import (
    AnomalyBurst,
    ConceptDrift,
    DeviceChurn,
    PhaseJitter,
    StreamMutator,
)
from repro.fleet.report import (
    DelaySummary,
    FleetReport,
    TierUsage,
    WindowedMetrics,
    report_from_metrics,
)
from repro.fleet.spec import MUTATOR_KINDS, FleetSpec, MutatorSpec

__all__ = [
    "ColumnarArrivals",
    "DeviceFleet",
    "WindowPool",
    "FleetEngine",
    "DelayReservoir",
    "StreamingMetrics",
    "StreamMutator",
    "ConceptDrift",
    "AnomalyBurst",
    "DeviceChurn",
    "PhaseJitter",
    "FleetReport",
    "TierUsage",
    "WindowedMetrics",
    "DelaySummary",
    "report_from_metrics",
    "FleetSpec",
    "MutatorSpec",
    "MUTATOR_KINDS",
]
