"""Human-readable digests of telemetry artifacts (``repro obs summarize``).

:func:`summarize_trace` renders one run's ``trace.jsonl`` into a terminal
digest: the top spans by duration, tier utilization, latency percentiles,
overload counts and the adaptation timeline.  The span/event stream alone is
enough for a useful digest; when the sibling ``metrics.json`` written by
:meth:`~repro.obs.export.Telemetry.finalize` is present, its exact counters
take precedence over counts reconstructed from spans.

Sharded run directories work too: a directory containing ``shard-NN/``
telemetry sinks is summarized across all of them — the parent's folded
``metrics.json`` is used when present (it already contains every shard
through the merge algebra), else the shard registries are merged on the fly,
and the shard trace streams are concatenated in shard order.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.export import METRICS_JSON_FILE, TRACE_FILE, read_trace
from repro.obs.metrics import MetricsRegistry

PathLike = Union[str, Path]

#: How many spans the "top spans by duration" section shows.
TOP_SPANS = 10


def _load_sibling_registry(trace_path: Path) -> Optional[MetricsRegistry]:
    metrics_path = trace_path.parent / METRICS_JSON_FILE
    if not metrics_path.is_file():
        return None
    from repro.utils.serialization import load_json

    try:
        return MetricsRegistry.from_payload(load_json(metrics_path))
    except Exception:
        # The digest must render from the JSONL alone; a damaged sibling
        # metrics file downgrades the digest instead of failing it.
        return None


def _tier_counts(registry: Optional[MetricsRegistry], spans: List[dict]) -> Counter:
    """Windows/requests per tier: the registry's tier counters, else the
    ``serve.batch`` spans — each carries its row count ``n`` and, at its end,
    the tier that served it.  No other span counts: a request span repeats
    its batch's rows and an ``adapt.retrain`` span serves nothing."""
    counts: Counter = Counter()
    if registry is not None:
        for name in ("fleet_tier_windows_total", "serve_tier_requests_total"):
            family = registry.get(name)
            if family is None:
                continue
            for key, cell in family._children.items():
                counts[key[0]] += int(cell.value)
        if counts:
            return counts
    for span in spans:
        attributes = span.get("attributes", {})
        if span.get("name") == "serve.batch" and "tier" in attributes:
            counts[str(attributes["tier"])] += int(attributes.get("n", 1))
    return counts


def _overload_counts(registry: Optional[MetricsRegistry], events: List[dict]) -> Dict[str, int]:
    if registry is not None:
        family = registry.get("serve_requests_total")
        if family is not None:
            by_status = {
                key[0]: int(cell.value) for key, cell in family._children.items()
            }
            if by_status:
                return {
                    status: by_status.get(status, 0)
                    for status in ("rejected", "shed", "expired", "dropped")
                }
    counts: Counter = Counter()
    for event in events:
        if event.get("name") == "serve.overload":
            counts[str(event.get("reason", "unknown"))] += 1
    return dict(counts)


#: Histograms the digest shows interpolated percentiles for, when present.
_PERCENTILE_FAMILIES = (
    "serve_latency_ms", "serve_queue_wait_ms", "serve_batch_size", "serve_tier_batch_size",
)


def _latency_lines(registry: Optional[MetricsRegistry]) -> List[str]:
    """p50/p90/p99 lines for the well-known latency histograms."""
    if registry is None:
        return []
    lines = []
    for name in _PERCENTILE_FAMILIES:
        family = registry.get(name)
        if family is None or family.kind != "histogram":
            continue
        quantiles = [family.quantile(q) for q in (0.50, 0.90, 0.99)]
        if quantiles[0] is None:
            continue
        p50, p90, p99 = quantiles
        lines.append(
            f"  {name:<22s} p50={p50:8.1f}  p90={p90:8.1f}  p99={p99:8.1f}"
        )
    return lines


def _format_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def summarize_records(records: List[dict], registry: Optional[MetricsRegistry] = None) -> str:
    """The digest of parsed trace records (see :func:`summarize_trace`)."""
    header = next((r for r in records if r.get("kind") == "header"), None)
    spans = [r for r in records if r.get("kind") == "span"]
    events = [r for r in records if r.get("kind") == "event"]

    name = header.get("name", "run") if header else "run"
    lines = [f"telemetry digest: {name} ({len(spans)} spans, {len(events)} events)"]

    timed = sorted(
        (s for s in spans if s.get("duration_ms") is not None),
        key=lambda s: -s["duration_ms"],
    )
    if timed:
        lines.append("")
        lines.append(f"top {min(TOP_SPANS, len(timed))} spans by duration:")
        for span in timed[:TOP_SPANS]:
            attrs = span.get("attributes", {})
            shown = "  ".join(
                f"{key}={_format_attr(attrs[key])}"
                for key in sorted(attrs)
                if key in ("tick", "tier", "status", "n", "accepted", "device_id")
            )
            lines.append(
                f"  {span['name']:<18s} {span['duration_ms']:10.3f} ms  {shown}".rstrip()
            )

    tiers = _tier_counts(registry, spans)
    if tiers:
        total = sum(tiers.values())
        lines.append("")
        lines.append("tier utilization:")
        for tier in sorted(tiers):
            share = 100.0 * tiers[tier] / total if total else 0.0
            lines.append(f"  {tier:<16s} {tiers[tier]:>10d}  ({share:5.1f}%)")

    percentiles = _latency_lines(registry)
    if percentiles:
        lines.append("")
        lines.append("latency percentiles (histogram-estimated):")
        lines.extend(percentiles)

    overload = _overload_counts(registry, events)
    if any(overload.values()):
        lines.append("")
        lines.append(
            "overload: "
            + "  ".join(f"{k}={v}" for k, v in sorted(overload.items()) if v)
        )

    adaptation = [
        e for e in events
        if str(e.get("name", "")).startswith("adapt.")
    ]
    if adaptation:
        lines.append("")
        lines.append("adaptation timeline:")
        for event in sorted(adaptation, key=lambda e: (e.get("tick", 0), e.get("time_s", 0.0))):
            kind = str(event["name"]).split(".", 1)[1]
            detail = "  ".join(
                f"{key}={_format_attr(event[key])}"
                for key in ("tier", "monitor", "accepted", "from_version", "to_version")
                if key in event
            )
            lines.append(f"  tick {event.get('tick', '?'):>4}  {kind:<8s} {detail}".rstrip())

    fault_events = [e for e in events if str(e.get("name", "")).startswith("fault.")]
    if fault_events:
        by_kind = Counter(str(e.get("fault", e["name"])) for e in fault_events)
        lines.append("")
        lines.append(
            "fault activations: "
            + "  ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
        )

    return "\n".join(lines)


def _shard_traces(directory: Path) -> List[Path]:
    """The per-shard trace files under a sharded run directory, shard order."""
    return sorted(
        shard_dir / TRACE_FILE
        for shard_dir in directory.glob("shard-[0-9][0-9]")
        if (shard_dir / TRACE_FILE).is_file()
    )


def summarize_trace(path: PathLike) -> str:
    """Render the digest of one ``trace.jsonl`` or a telemetry directory.

    A directory may be a plain run (``trace.jsonl`` inside), a sharded run
    (``shard-NN/`` sinks, aggregated across all of them), or both — the
    parent trace plus per-shard traces of a sharded telemetered run.
    """
    path = Path(path)
    if not path.is_dir():
        return summarize_records(
            read_trace(path), registry=_load_sibling_registry(path)
        )
    trace = path / TRACE_FILE
    records: List[dict] = []
    if trace.is_file():
        records.extend(read_trace(trace))
    shard_traces = _shard_traces(path)
    for shard_trace in shard_traces:
        records.extend(read_trace(shard_trace))
    # The parent's metrics.json already folded every shard (the merge
    # algebra); only merge shard registries ourselves when it is absent.
    registry = _load_sibling_registry(trace)
    if registry is None:
        parts = [r for r in map(_load_sibling_registry, shard_traces) if r is not None]
        registry = MetricsRegistry.merge(parts) if parts else None
    if not records:
        # Surface the same clean error a plain missing trace file raises.
        records = read_trace(trace)
    return summarize_records(records, registry=registry)
