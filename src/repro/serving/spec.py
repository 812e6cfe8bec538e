"""Declarative serving-front-door specifications.

A :class:`ServingSpec` describes one open-loop serving run: how the
micro-batcher coalesces per-device submissions (flush on ``max_batch`` or
``max_wait_ms``, whichever first), how admission control bounds the ingress
queue and sheds under overload, how fast the load generator offers traffic,
and the p99 latency SLO the run is judged against.  Like the rest of the
experiment-spec tree it is pure data — frozen, comparable, JSON
round-trippable and overridable with the CLI's dotted ``--set serve.*``
paths — and it hangs off :class:`~repro.experiments.spec.ExperimentSpec` as
the optional ``serve`` node consumed by the runner's ``serve`` stage.

This module deliberately imports nothing from :mod:`repro.experiments` so the
spec tree can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.utils.serialization import JsonRecord

#: Admission-control policies for a full ingress queue: ``reject-new`` turns
#: the incoming request away immediately; ``shed-oldest`` evicts the oldest
#: queued request (resolving it as shed) to admit the new one.
SHED_POLICIES = ("reject-new", "shed-oldest")


@dataclass(frozen=True)
class ServingSpec(JsonRecord):
    """An open-loop serving workload attached to an experiment.

    ``seed`` is the serving run's own stream seed; the load generator folds
    it together with the experiment's master seed, so ``repro serve --seed``
    reseeds the arrival process without perturbing the fleet's device
    streams.
    """

    # -- micro-batcher ---------------------------------------------------------
    #: Flush a micro-batch once it holds this many requests ...
    max_batch: int = 32
    #: ... or once the oldest request in it has waited this long.
    max_wait_ms: float = 5.0
    # -- admission control / load shedding -------------------------------------
    #: Bounded ingress queue; submissions beyond it trigger ``shed_policy``.
    queue_capacity: int = 128
    shed_policy: str = "reject-new"
    #: In-flight micro-batches allowed per tier before dispatch blocks
    #: (the backpressure that fills the ingress queue under overload).
    tier_concurrency: int = 2
    #: Queued requests older than this are shed at dispatch time instead of
    #: being served hopelessly late; ``None`` derives ``slo_p99_ms / 2``.
    max_age_ms: Optional[float] = None
    # -- SLO -------------------------------------------------------------------
    #: The served-request p99 latency target (measured wall-clock, from the
    #: scheduled arrival to the completed response).  The default leaves the
    #: derived shed deadline (``slo_p99_ms / 2``) enough headroom above the
    #: slowest simulated tier (~505 ms for cloud at ``service_time_scale=1``)
    #: that a request shedding protects can still be served within the SLO:
    #: the served tail is bounded by ``deadline + slowest service``.
    slo_p99_ms: float = 1500.0
    #: Service is paced by the simulated HEC delay scaled by this factor (the
    #: tier slot is held for ``scale * delay_ms``), so throughput is bounded
    #: by the simulated hierarchy, not by host speed; ``0`` disables pacing.
    service_time_scale: float = 1.0
    # -- open-loop load generator ----------------------------------------------
    #: Mean offered arrival rate (exponential inter-arrivals), decoupled from
    #: the service rate so queueing under overload is real.
    offered_rps: float = 200.0
    #: Requests the generator schedules (capped by the fleet's arrivals).
    max_requests: int = 512
    seed: int = 0
    #: Capacity of the latency sample behind the p50/p90/p99 (served
    #: requests keyed by row, see :class:`~repro.fleet.metrics.DelayReservoir`).
    reservoir_size: int = 2048

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ConfigurationError(f"max_batch must be positive, got {self.max_batch}")
        if self.max_wait_ms <= 0:
            raise ConfigurationError(
                f"max_wait_ms must be positive, got {self.max_wait_ms}"
            )
        if self.queue_capacity <= 0:
            raise ConfigurationError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {SHED_POLICIES}, got {self.shed_policy!r}"
            )
        if self.tier_concurrency <= 0:
            raise ConfigurationError(
                f"tier_concurrency must be positive, got {self.tier_concurrency}"
            )
        if self.slo_p99_ms <= 0:
            raise ConfigurationError(
                f"slo_p99_ms must be positive, got {self.slo_p99_ms}"
            )
        if self.service_time_scale < 0:
            raise ConfigurationError(
                f"service_time_scale must be non-negative, got {self.service_time_scale}"
            )
        if self.offered_rps <= 0:
            raise ConfigurationError(
                f"offered_rps must be positive, got {self.offered_rps}"
            )
        if self.max_requests <= 0:
            raise ConfigurationError(
                f"max_requests must be positive, got {self.max_requests}"
            )
        if self.reservoir_size <= 0:
            raise ConfigurationError(
                f"reservoir_size must be positive, got {self.reservoir_size}"
            )
        # Unreachable-SLO configurations are rejected up front: the batcher may
        # legitimately hold a request for the full max wait, so a shed deadline
        # at or below it sheds every admitted request and nothing can ever be
        # served within the SLO.
        if self.max_age_ms is not None:
            if self.max_age_ms <= self.max_wait_ms:
                raise ConfigurationError(
                    f"max_age_ms ({self.max_age_ms}) must exceed max_wait_ms "
                    f"({self.max_wait_ms}); the micro-batcher alone may hold a "
                    "request for the full max wait, so a smaller age budget "
                    "sheds every admitted request"
                )
            if self.slo_p99_ms <= self.max_wait_ms:
                raise ConfigurationError(
                    f"unreachable SLO: slo_p99_ms ({self.slo_p99_ms}) must exceed "
                    f"max_wait_ms ({self.max_wait_ms}) — no request completes "
                    "faster than the batcher's max wait"
                )
        elif self.slo_p99_ms <= 2.0 * self.max_wait_ms:
            raise ConfigurationError(
                f"unreachable SLO: slo_p99_ms ({self.slo_p99_ms}) must exceed "
                f"2 x max_wait_ms ({self.max_wait_ms}) so the derived shed "
                "deadline (slo_p99_ms / 2) clears the micro-batcher's max "
                "wait; set max_age_ms explicitly to override"
            )

    @property
    def effective_max_age_ms(self) -> float:
        """The shed deadline actually enforced at dispatch time."""
        if self.max_age_ms is not None:
            return float(self.max_age_ms)
        return float(self.slo_p99_ms) / 2.0
