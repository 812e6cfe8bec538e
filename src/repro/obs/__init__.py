"""Unified telemetry: metrics registry, structured tracing and exporters.

The observability layer the serving front door, the streaming fleet engines
and the adaptation loop all report into (see DESIGN.md "Observability" and
"Distributed telemetry & alerting"):

* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms with a
  deterministic merge, interpolated quantile estimation and a Prometheus
  text exposition;
* :mod:`repro.obs.trace` — spans with deterministic counter-based ids (zero
  RNG touch, shard-scopable) and contextvar-based log correlation;
* :mod:`repro.obs.export` — the per-run :class:`Telemetry` session, child
  shard sessions, the atomic JSONL sink, the incremental
  :class:`TraceFollower` and the exporter helpers;
* :mod:`repro.obs.rollup` — sliding-window rollups (rates, deltas, rolling
  quantiles) over registry snapshots;
* :mod:`repro.obs.alerts` — declarative threshold/absence/burn-rate alert
  rules with a fire/resolve lifecycle;
* :mod:`repro.obs.live` — the in-run ``--watch`` watcher and the
  ``repro obs top``/``obs tail`` live views;
* :mod:`repro.obs.summary` — the ``repro obs summarize`` digest;
* :mod:`repro.obs.spec` — the declarative ``obs`` node of an experiment.

The whole layer is opt-in: a run without a :class:`Telemetry` object pays
exactly one ``is None`` check per instrumented site, and a run *with* one
produces bit-identical reports (pinned by tests) — sharded runs included,
whose per-shard child sessions merge deterministically into the parent.
"""

from repro.obs.alerts import (
    AlertManager,
    AlertRule,
    default_fleet_rules,
    default_serving_rules,
)
from repro.obs.export import (
    JsonlSink,
    ShardObsConfig,
    Telemetry,
    TraceFollower,
    read_trace,
    shard_obs_dir,
    write_prometheus,
)
from repro.obs.live import RollupWatcher, TopView, format_tail_line
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    estimate_fraction_above,
    estimate_quantile,
)
from repro.obs.rollup import Rollup, RollupRing
from repro.obs.spec import ObsSpec
from repro.obs.summary import summarize_trace
from repro.obs.trace import Span, Tracer, current_ids

__all__ = [
    "AlertManager",
    "AlertRule",
    "DEFAULT_BUCKETS",
    "JsonlSink",
    "MetricsRegistry",
    "ObsSpec",
    "Rollup",
    "RollupRing",
    "RollupWatcher",
    "ShardObsConfig",
    "Span",
    "Telemetry",
    "TopView",
    "TraceFollower",
    "Tracer",
    "current_ids",
    "default_fleet_rules",
    "default_serving_rules",
    "estimate_fraction_above",
    "estimate_quantile",
    "format_tail_line",
    "read_trace",
    "shard_obs_dir",
    "summarize_trace",
    "write_prometheus",
]
