"""The serialisable result of one fleet streaming run.

A :class:`FleetReport` is pure data summarising what
:class:`~repro.fleet.engine.FleetEngine` observed: stream totals, the
windowed online accuracy/F1 trajectory, per-tier utilisation, and delay
percentiles from the bounded reservoir.  It round-trips through JSON via
:mod:`repro.utils.serialization` and compares by value, which is what the
sharded/unsharded equivalence tests pin.

Wall-clock timing deliberately stays *out* of the report (the benchmark
harness records it separately): a report describes the simulated stream, so
two runs of the same spec — sharded or not — must produce equal reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.adapt.events import AdaptationTimeline
from repro.evaluation.metrics import rates_from_confusion
from repro.exceptions import ConfigurationError
from repro.fleet.metrics import StreamingMetrics, mean_ms
from repro.utils.serialization import JsonRecord


@dataclass(frozen=True)
class WindowedMetrics(JsonRecord):
    """Online metrics over one block of ``metrics_window`` ticks."""

    index: int
    tick_start: int
    n_windows: int
    accuracy: float
    f1: float
    anomaly_fraction: float
    mean_delay_ms: float


@dataclass(frozen=True)
class TierUsage(JsonRecord):
    """How much of the stream one tier handled, and at what delay."""

    layer: int
    tier: str
    requests: int
    fraction: float
    mean_delay_ms: float
    anomalies_reported: int
    #: Requests that were redirected *to* this tier by failover because the
    #: policy's chosen tier was unreachable (zero on healthy runs; defaulted
    #: so reports written before fault injection still load).
    redirected: int = 0


@dataclass(frozen=True)
class DelaySummary(JsonRecord):
    """End-to-end delay statistics (percentiles from the bounded reservoir)."""

    mean_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float
    samples_seen: int
    reservoir_size: int


@dataclass(frozen=True)
class FleetReport(JsonRecord):
    """Everything one fleet streaming run produced."""

    name: str
    n_devices: int
    ticks: int
    metrics_window: int
    n_windows: int
    n_anomalous: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    windowed: Tuple[WindowedMetrics, ...]
    tiers: Tuple[TierUsage, ...]
    delay: DelaySummary
    online_device_ticks: int
    offline_device_ticks: int
    #: What the adaptation loop did during the run (``None`` when the run
    #: streamed without a controller — reports from such runs stay equal to
    #: pre-adaptation reports, field for field).
    adaptation: Optional[AdaptationTimeline] = None

    # -- presentation ------------------------------------------------------------

    def summary(self) -> str:
        """Short plain-text summary of the run."""
        lines = [
            f"Fleet report for {self.name}:",
            f"  {self.n_devices} devices x {self.ticks} ticks -> "
            f"{self.n_windows} windows ({self.n_anomalous} anomalous)",
            f"  accuracy={100 * self.accuracy:.2f}%  F1={self.f1:.3f}  "
            f"precision={self.precision:.3f}  recall={self.recall:.3f}",
            f"  delay mean={self.delay.mean_ms:.1f} ms  p50={self.delay.p50_ms:.1f}  "
            f"p90={self.delay.p90_ms:.1f}  p99={self.delay.p99_ms:.1f}",
        ]
        total_ticks = self.online_device_ticks + self.offline_device_ticks
        if total_ticks:
            lines.append(
                f"  device uptime: {100 * self.online_device_ticks / total_ticks:.1f}% "
                f"({self.offline_device_ticks} offline device-ticks)"
            )
        for tier in self.tiers:
            lines.append(
                f"  tier {tier.tier:<8s} {tier.requests:>8d} requests "
                f"({100 * tier.fraction:5.1f}%)  mean delay {tier.mean_delay_ms:8.1f} ms"
            )
        if self.adaptation is not None:
            timeline = self.adaptation
            lines.append(
                f"  adaptation: {len(timeline.drifts)} drift signal(s), "
                f"{len(timeline.retrains)} retrain(s), {len(timeline.swaps)} swap(s)"
            )
            for swap in timeline.swaps:
                lines.append(
                    f"    tick {swap.tick:>4d}  {swap.tier}: {swap.from_version} -> "
                    f"{swap.to_version}"
                    + ("  [fp16]" if swap.quantized else "")
                )
        return "\n".join(lines)


def report_from_metrics(
    name: str,
    metrics: StreamingMetrics,
    tier_names: Tuple[str, ...],
    n_devices: int,
    adaptation: Optional[AdaptationTimeline] = None,
) -> FleetReport:
    """Assemble the immutable :class:`FleetReport` from a finished aggregator."""
    if len(tier_names) != metrics.n_layers:
        raise ConfigurationError(
            f"got {len(tier_names)} tier names for {metrics.n_layers} layers"
        )
    total = rates_from_confusion(metrics.confusion)
    n_windows = metrics.n_windows

    windowed = []
    for index in range(metrics.n_metric_windows):
        counts = metrics.windowed_confusion[index]
        block = rates_from_confusion(counts)
        block_n = int(counts.sum())
        windowed.append(
            WindowedMetrics(
                index=index,
                tick_start=index * metrics.metrics_window,
                n_windows=block_n,
                accuracy=block["accuracy"],
                f1=block["f1"],
                anomaly_fraction=block["anomaly_fraction"],
                mean_delay_ms=mean_ms(metrics.windowed_delay_sum[index], block_n),
            )
        )

    tiers = []
    for layer, tier in enumerate(tier_names):
        requests = int(metrics.layer_requests[layer])
        tiers.append(
            TierUsage(
                layer=layer,
                tier=tier,
                requests=requests,
                fraction=float(requests / n_windows) if n_windows else 0.0,
                mean_delay_ms=mean_ms(metrics.layer_delay_sum[layer], requests),
                anomalies_reported=int(metrics.layer_anomalies[layer]),
                redirected=int(metrics.layer_redirected[layer]),
            )
        )

    delay = DelaySummary(
        mean_ms=mean_ms(metrics.delay_sum, n_windows),
        p50_ms=metrics.reservoir.percentile(50.0),
        p90_ms=metrics.reservoir.percentile(90.0),
        p99_ms=metrics.reservoir.percentile(99.0),
        max_ms=metrics.delay_max,
        samples_seen=int(metrics.reservoir.seen),
        reservoir_size=int(metrics.reservoir.capacity),
    )

    tp, fp, tn, fn = (int(c) for c in metrics.confusion)
    return FleetReport(
        name=name,
        n_devices=int(n_devices),
        ticks=metrics.ticks,
        metrics_window=metrics.metrics_window,
        n_windows=n_windows,
        n_anomalous=tp + fn,
        accuracy=total["accuracy"],
        precision=total["precision"],
        recall=total["recall"],
        f1=total["f1"],
        windowed=tuple(windowed),
        tiers=tuple(tiers),
        delay=delay,
        online_device_ticks=int(metrics.online_device_ticks),
        offline_device_ticks=int(metrics.offline_device_ticks),
        adaptation=adaptation,
    )
