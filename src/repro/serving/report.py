"""The serialisable result of one serving run.

A :class:`ServingReport` summarises what the front door did under one
open-loop load: request conservation (submitted = served + rejected + shed +
expired, with the residue pinned at zero), offered vs achieved throughput,
measured latency percentiles against the p99 SLO, micro-batch shape, per-tier
utilisation, detection quality over the served traffic, and the hot swaps
that landed mid-run.

Unlike :class:`~repro.fleet.report.FleetReport`, a serving report is
inherently wall-clock — two runs of the same spec will not compare equal —
so CI gates only its machine-independent leaves (conservation counts and
the SLO pass/fail booleans; see the ``serve-smoke`` assertions on
``repro serve`` reports).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.fleet.metrics import DelayReservoir, delay_ns, mean_ms, rates_from_confusion
from repro.fleet.report import DelaySummary
from repro.serving.server import IngestServer
from repro.utils.serialization import load_json, save_json, to_jsonable

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ServingTierUsage:
    """How much of the served traffic one tier handled."""

    layer: int
    tier: str
    requests: int
    fraction: float
    #: Requests redirected *to* this tier because the chosen one was
    #: unreachable (zero on healthy runs).
    redirected: int = 0

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServingTierUsage":
        return cls(**dict(payload))


@dataclass(frozen=True)
class ServingReport:
    """Everything one open-loop serving run produced."""

    name: str
    # -- request conservation ---------------------------------------------------
    n_submitted: int
    n_served: int
    n_rejected: int
    n_shed: int
    n_expired: int
    #: ``n_submitted - n_served - n_rejected - n_shed - n_expired``; the
    #: zero-drop contract, pinned at 0 by the serving tests.
    n_dropped: int
    shed_rate: float
    # -- throughput --------------------------------------------------------------
    offered_rps: float
    achieved_rps: float
    duration_seconds: float
    # -- SLO ---------------------------------------------------------------------
    slo_p99_ms: float
    slo_met: bool
    # -- micro-batching ----------------------------------------------------------
    n_batches: int
    mean_batch_size: float
    max_batch_size: int
    # -- latency & quality -------------------------------------------------------
    #: Measured wall-clock service latency of *served* requests.
    latency: DelaySummary
    mean_simulated_delay_ms: float
    accuracy: float
    f1: float
    tiers: Tuple[ServingTierUsage, ...]
    # -- deployments -------------------------------------------------------------
    n_swaps: int
    swap_versions: Tuple[int, ...]
    shed_policy: str
    # -- fault injection ---------------------------------------------------------
    #: Backoff retries spent against tiers behind a down link (0 on healthy
    #: runs; defaulted so pre-fault-injection payloads still load).
    n_retries: int = 0

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready nested dictionary."""
        return to_jsonable(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServingReport":
        kwargs = dict(payload)
        unknown = sorted(set(kwargs) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigurationError(
                f"unknown key(s) {unknown} in serving report payload"
            )
        kwargs["tiers"] = tuple(
            t if isinstance(t, ServingTierUsage) else ServingTierUsage.from_dict(t)
            for t in kwargs.get("tiers", ())
        )
        latency = kwargs.get("latency")
        if latency is not None and not isinstance(latency, DelaySummary):
            kwargs["latency"] = DelaySummary.from_dict(latency)
        kwargs["swap_versions"] = tuple(kwargs.get("swap_versions", ()))
        return cls(**kwargs)

    def to_json(self, path: PathLike) -> Path:
        """Write the report as pretty-printed JSON; returns the path."""
        return save_json(path, self.to_dict())

    @classmethod
    def from_json(cls, path: PathLike) -> "ServingReport":
        """Load a report written by :meth:`to_json`."""
        return cls.from_dict(load_json(path))

    # -- presentation ------------------------------------------------------------

    def summary(self) -> str:
        """Short plain-text summary of the run."""
        slo = "met" if self.slo_met else "MISSED"
        lines = [
            f"Serving report for {self.name}:",
            f"  {self.n_submitted} requests offered at {self.offered_rps:.0f} rps "
            f"over {self.duration_seconds:.2f} s -> {self.n_served} served "
            f"({self.achieved_rps:.0f} rps achieved)",
            f"  shed: {self.n_rejected} rejected, {self.n_shed} evicted, "
            f"{self.n_expired} expired ({100 * self.shed_rate:.1f}% of offered; "
            f"policy {self.shed_policy}); dropped: {self.n_dropped}",
            f"  latency p50={self.latency.p50_ms:.1f} ms  p90={self.latency.p90_ms:.1f}  "
            f"p99={self.latency.p99_ms:.1f}  (SLO {self.slo_p99_ms:.0f} ms: {slo})",
            f"  micro-batches: {self.n_batches} "
            f"(mean {self.mean_batch_size:.1f}, max {self.max_batch_size} requests)",
            f"  served-traffic accuracy={100 * self.accuracy:.2f}%  F1={self.f1:.3f}  "
            f"mean simulated delay={self.mean_simulated_delay_ms:.1f} ms",
        ]
        for tier in self.tiers:
            lines.append(
                f"  tier {tier.tier:<8s} {tier.requests:>8d} served "
                f"({100 * tier.fraction:5.1f}%)"
                + (f"  [{tier.redirected} redirected]" if tier.redirected else "")
            )
        if self.n_retries:
            lines.append(f"  fault retries: {self.n_retries} (backoff before failover)")
        if self.n_swaps:
            versions = " -> ".join(f"v{v}" for v in self.swap_versions)
            lines.append(f"  hot swaps: {self.n_swaps} ({versions})")
        return "\n".join(lines)


def report_from_server(
    server: IngestServer,
    *,
    name: str,
    duration_seconds: float,
) -> ServingReport:
    """Assemble the immutable :class:`ServingReport` from a stopped server."""
    serving = server.serving
    n_dropped = (
        server.n_submitted
        - server.n_served
        - server.n_rejected
        - server.n_shed
        - server.n_expired
    )
    rows, delays, latencies = server.served()
    sample = DelayReservoir(serving.reservoir_size)
    sample.extend(latencies, keys=rows)
    p99 = sample.percentile(99.0)
    quality = rates_from_confusion(server.confusion)
    tiers = []
    for layer, tier in enumerate(server.tier_names):
        requests = int(server.tier_served[layer])
        tiers.append(
            ServingTierUsage(
                layer=layer,
                tier=tier,
                requests=requests,
                fraction=float(requests / server.n_served) if server.n_served else 0.0,
                redirected=int(server.tier_redirected[layer]),
            )
        )
    latency = DelaySummary(
        mean_ms=mean_ms(delay_ns(latencies).sum(), rows.size),
        p50_ms=sample.percentile(50.0),
        p90_ms=sample.percentile(90.0),
        p99_ms=p99,
        max_ms=float(latencies.max()) if rows.size else 0.0,
        samples_seen=sample.seen,
        reservoir_size=sample.capacity,
    )
    return ServingReport(
        name=name,
        n_submitted=int(server.n_submitted),
        n_served=int(server.n_served),
        n_rejected=int(server.n_rejected),
        n_shed=int(server.n_shed),
        n_expired=int(server.n_expired),
        n_dropped=int(n_dropped),
        shed_rate=(
            float(server.total_shed / server.n_submitted) if server.n_submitted else 0.0
        ),
        offered_rps=float(serving.offered_rps),
        achieved_rps=(
            float(server.n_served / duration_seconds) if duration_seconds > 0 else 0.0
        ),
        duration_seconds=float(duration_seconds),
        slo_p99_ms=float(serving.slo_p99_ms),
        slo_met=bool(
            server.n_served > 0 and not math.isnan(p99) and p99 <= serving.slo_p99_ms
        ),
        n_batches=int(server.n_batches),
        mean_batch_size=(
            float(server.batched_requests / server.n_batches) if server.n_batches else 0.0
        ),
        max_batch_size=int(server.max_batch_size),
        latency=latency,
        mean_simulated_delay_ms=mean_ms(delay_ns(delays).sum(), rows.size),
        accuracy=quality["accuracy"],
        f1=quality["f1"],
        tiers=tuple(tiers),
        n_swaps=int(server.n_swaps),
        swap_versions=tuple(int(v) for v in server.swap_versions),
        shed_policy=serving.shed_policy,
        n_retries=int(server.n_retries),
    )
