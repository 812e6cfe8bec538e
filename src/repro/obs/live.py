"""Live observability: in-run watchers and the ``obs top``/``obs tail`` views.

Two halves, joined by the trace stream:

* **inside the run** — a :class:`RollupWatcher` hangs off a
  :class:`~repro.obs.export.Telemetry` session (``telemetry.watcher``); the
  instrumented loops call :meth:`RollupWatcher.observe` at tick/request
  boundaries.  Every ``every`` units of progress it snapshots the registry
  into its :class:`~repro.obs.rollup.RollupRing`, evaluates its alert rules,
  and emits a ``watch.rollup`` trace event carrying the window's rates,
  rolling p99 and active alerts.  With a ``printer`` attached (the
  ``--watch`` flag) it also prints one digest line per window.

* **outside the run** — ``repro obs top`` / ``obs tail`` attach a
  :class:`~repro.obs.export.TraceFollower` to the run directory and feed the
  records into a :class:`TopView`, which maintains tier utilization, queue
  depth, rolling latency and the active-alert set, and renders a refreshing
  text digest.  It works on a *live* run (reading the ``.tmp`` sink as it
  grows) and on a finished one.

Like everything in :mod:`repro.obs`, both halves are pure observers: they
read registry snapshots and trace records and never touch run state or RNG.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.obs.alerts import AlertManager
from repro.obs.rollup import DEFAULT_CAPACITY, RollupRing


def _fmt(value: Optional[float], precision: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:.{precision}f}"


class RollupWatcher:
    """Periodic rollup + alert evaluation driven by the instrumented loops.

    ``every`` is measured in units of the progress key the caller observes
    with (ticks for the fleet engine, served requests for the server).
    ``window`` bounds the snapshot ring.  ``printer`` (e.g. ``print``)
    receives one formatted line per evaluated window — that is the
    ``--watch`` console stream; leave it ``None`` for silent in-trace
    watching.
    """

    def __init__(
        self,
        telemetry,
        rules=(),
        every: float = 1.0,
        window: int = DEFAULT_CAPACITY,
        label: str = "watch",
        printer=None,
    ) -> None:
        self.telemetry = telemetry
        self.every = float(every)
        self.label = str(label)
        self.printer = printer
        self.ring = RollupRing(window)
        self.alerts = AlertManager(rules, telemetry=telemetry)
        self._last_key: Optional[float] = None
        #: Number of windows evaluated (pinned by tests; also a cheap way
        #: for callers to see whether a watch produced any output at all).
        self.n_windows = 0

    def observe(self, key: float, **extra: Any) -> None:
        """Advance the watch to progress ``key`` (tick count, served count).

        Keys that have not advanced by ``every`` since the last snapshot are
        ignored, so the caller can invoke this every tick/request and the
        watcher decides the cadence.  ``extra`` fields (e.g. the server's
        instantaneous queue depth) ride along on the ``watch.rollup`` event.
        """
        key = float(key)
        if self._last_key is not None and key - self._last_key < self.every:
            return
        if self._last_key is not None and key <= self._last_key:
            return
        self._last_key = key
        self.ring.push(key, self.telemetry.registry)
        if len(self.ring) < 2:
            return
        active = self.alerts.evaluate(self.ring, key)
        stats = self._stats()
        self.n_windows += 1
        record: Dict[str, Any] = {"key": key, "label": self.label, "alerts": active}
        record.update(stats)
        record.update(extra)
        self.telemetry.event("watch.rollup", **record)
        if self.printer is not None:
            self.printer(self._format_line(key, stats, active, extra))

    def _stats(self) -> Dict[str, Any]:
        """Well-known window statistics, present only when their metrics are."""
        rollup = self.ring.rollup(over=1)
        stats: Dict[str, Any] = {}
        if rollup is None:
            return stats
        if rollup.has("serve_requests_total"):
            stats["served_rate"] = rollup.rate(
                "serve_requests_total", (("status", "served"),)
            )
            stats["shed_delta"] = rollup.delta(
                "serve_requests_total",
                (("status", ("shed", "rejected", "expired")),),
            )
        if rollup.has("serve_latency_ms"):
            stats["p99_ms"] = rollup.quantile("serve_latency_ms", 0.99)
        if rollup.has("fleet_tier_windows_total"):
            stats["windows_rate"] = rollup.rate("fleet_tier_windows_total")
        if rollup.has("fleet_detections_total"):
            stats["detections_delta"] = rollup.delta("fleet_detections_total")
        return stats

    def _format_line(
        self,
        key: float,
        stats: Mapping[str, Any],
        active: List[str],
        extra: Mapping[str, Any],
    ) -> str:
        parts = [f"[{self.label} @{key:g}]"]
        if "served_rate" in stats:
            parts.append(f"served/s={_fmt(stats['served_rate'], 2)}")
        if "p99_ms" in stats:
            parts.append(f"p99={_fmt(stats['p99_ms'])}ms")
        if "shed_delta" in stats:
            parts.append(f"shed={stats['shed_delta']:g}")
        if "queue_depth" in extra:
            parts.append(f"queue={extra['queue_depth']}")
        if "windows_rate" in stats:
            parts.append(f"windows/s={_fmt(stats['windows_rate'], 2)}")
        if "detections_delta" in stats:
            parts.append(f"detections={stats['detections_delta']:g}")
        parts.append(f"alerts={','.join(active) if active else 'none'}")
        return " ".join(parts)


#: How many recent request latencies the top view keeps for its rolling p99.
TOP_LATENCY_WINDOW = 256


def _percentile(values: List[float], q: float) -> Optional[float]:
    """Nearest rank: the ceil(q * n)-th smallest of the ``n`` values."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


class TopView:
    """Accumulates trace records into a refreshing run digest.

    Feed it batches from a :class:`~repro.obs.export.TraceFollower` (or a
    whole ``read_trace`` result) via :meth:`update`; :meth:`render` returns
    the current digest: run identity, tier utilization, queue depth, rolling
    p99 against the SLO, the latest rollup line and the active alerts.
    """

    def __init__(self, slo_p99_ms: Optional[float] = None) -> None:
        self.slo_p99_ms = slo_p99_ms
        self.name: Optional[str] = None
        self.n_records = 0
        self.span_counts: Dict[str, int] = {}
        self.tier_counts: Dict[str, int] = {}
        self.latencies: Deque[float] = deque(maxlen=TOP_LATENCY_WINDOW)
        self.queue_depth: Optional[int] = None
        self.last_rollup: Optional[Dict[str, Any]] = None
        self.active_alerts: Dict[str, Dict[str, Any]] = {}
        self.overloads = 0
        self.last_tick: Optional[int] = None

    def update(self, records) -> int:
        """Absorb a batch of trace records; returns how many were absorbed."""
        n = 0
        for record in records:
            self._absorb(record)
            n += 1
        return n

    def _absorb(self, record: Mapping[str, Any]) -> None:
        kind = record.get("kind")
        self.n_records += 1
        if kind == "header":
            self.name = record.get("name")
            return
        if kind == "span":
            name = str(record.get("name"))
            self.span_counts[name] = self.span_counts.get(name, 0) + 1
            attributes = record.get("attributes") or {}
            if name == "serve.batch" and "tier" in attributes:
                # A batch's end-time tier served all its ``n`` rows; request
                # spans would count those rows a second time.
                tier = str(attributes["tier"])
                n = int(attributes.get("n", 1))
                self.tier_counts[tier] = self.tier_counts.get(tier, 0) + n
            if name == "serve.request":
                latency = attributes.get("latency_ms", record.get("duration_ms"))
                if isinstance(latency, (int, float)):
                    self.latencies.append(float(latency))
            if name == "fleet.tick":
                tick = attributes.get("tick")
                if isinstance(tick, int):
                    self.last_tick = tick
            return
        if kind != "event":
            return
        name = str(record.get("name"))
        if name == "watch.rollup":
            self.last_rollup = dict(record)
            depth = record.get("queue_depth")
            if isinstance(depth, (int, float)):
                self.queue_depth = int(depth)
            for alert in record.get("alerts", ()):
                self.active_alerts.setdefault(str(alert), {})
        elif name == "alert.fire":
            self.active_alerts[str(record.get("alert"))] = dict(record)
        elif name == "alert.resolve":
            self.active_alerts.pop(str(record.get("alert")), None)
        elif name == "serve.overload":
            self.overloads += 1
            depth = record.get("queue_depth")
            if isinstance(depth, (int, float)):
                self.queue_depth = int(depth)

    @property
    def p99_ms(self) -> Optional[float]:
        """Rolling p99 over the last :data:`TOP_LATENCY_WINDOW` requests."""
        return _percentile(list(self.latencies), 0.99)

    @property
    def p50_ms(self) -> Optional[float]:
        return _percentile(list(self.latencies), 0.50)

    def render(self) -> str:
        """The current digest as a multi-line string."""
        lines: List[str] = []
        title = self.name or "run"
        lines.append(f"== {title} :: {self.n_records} records ==")
        if self.last_tick is not None:
            lines.append(f"tick: {self.last_tick}")
        if self.tier_counts:
            total = sum(self.tier_counts.values()) or 1
            util = "  ".join(
                f"{tier}={count} ({100.0 * count / total:.0f}%)"
                for tier, count in sorted(self.tier_counts.items())
            )
            lines.append(f"tiers: {util}")
        if self.latencies:
            slo = f" (SLO {self.slo_p99_ms:g}ms)" if self.slo_p99_ms else ""
            lines.append(
                f"latency: p50={_fmt(self.p50_ms)}ms p99={_fmt(self.p99_ms)}ms{slo}"
            )
        if self.queue_depth is not None:
            lines.append(f"queue depth: {self.queue_depth}")
        if self.overloads:
            lines.append(f"overload events: {self.overloads}")
        if self.last_rollup is not None:
            rollup = self.last_rollup
            bits = []
            for field, label in (
                ("served_rate", "served/s"),
                ("p99_ms", "window-p99"),
                ("shed_delta", "shed"),
                ("windows_rate", "windows/s"),
            ):
                if field in rollup and rollup[field] is not None:
                    bits.append(f"{label}={_fmt(float(rollup[field]), 2)}")
            if bits:
                lines.append(f"last window: {' '.join(bits)} @{rollup.get('key')}")
        if self.active_alerts:
            lines.append(f"ALERTS: {', '.join(sorted(self.active_alerts))}")
        else:
            lines.append("alerts: none")
        return "\n".join(lines)


def format_tail_line(record: Mapping[str, Any]) -> str:
    """One human-readable line per trace record (the ``obs tail`` format)."""
    kind = record.get("kind")
    if kind == "header":
        return f"# trace {record.get('name')!r} schema={record.get('schema')}"
    if kind == "span":
        duration = record.get("duration_ms")
        timing = f" {duration:.2f}ms" if isinstance(duration, (int, float)) else ""
        attributes = record.get("attributes") or {}
        extras = " ".join(f"{k}={v}" for k, v in sorted(attributes.items()))
        return f"span  {record.get('name')}{timing} [{record.get('span_id')}] {extras}".rstrip()
    if kind == "event":
        skip = {"kind", "name", "time_s", "trace_id", "span_id"}
        extras = " ".join(
            f"{k}={v}" for k, v in sorted(record.items()) if k not in skip
        )
        return f"event {record.get('name')} {extras}".rstrip()
    return f"{kind or '?'} {record}"
