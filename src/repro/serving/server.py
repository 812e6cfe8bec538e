"""The asyncio ingestion front door: micro-batching, tier batching, backpressure, drain-and-swap.

:class:`IngestServer` accepts per-device window submissions
(:meth:`IngestServer.submit`), coalesces them across devices with a tunable
micro-batcher — a batch flushes once it holds ``serve.max_batch`` requests or
once its oldest request has waited ``serve.max_wait_ms``, whichever first —
and routes each flushed batch through the trained policy.  Routing splits a
micro-batch into one share per chosen tier, and each share joins that tier's
routed queue.  A tier detects its queue in tier batches of up to
``serve.max_batch`` rows, oldest first, with one
:meth:`~repro.hec.simulation.HECSystem.detect_batch` call each.  A tier batch
starts once the tier holds ``max_batch`` routed rows, once its oldest routed
row has waited ``max_wait_ms``, or once the micro-batcher is about to wait on
an empty ingress queue or to close.  Regrouping rows this way changes no
prediction or score, because a detector's inference rows do not depend on
their batch (:func:`~repro.nn.layers.base.batch_invariant_matmul`).  Every
submission resolves to a :class:`ServeResult`; served results carry the
prediction, the simulated HEC delay, the *measured* wall-clock service
latency (scheduled arrival to completed response, so a backlog cannot hide
behind coordinated omission) and the model version that computed them.

Requests are rows of a request table, not objects.  ``submit`` admits a
request synchronously into preallocated columns, queues its row id and
returns an awaitable for that row's result.  A micro-batch and a tier batch
are arrays of row ids; a finished tier batch writes each result column with
one fancy-index assignment and wakes every waiter once
(:meth:`IngestServer.settled` waits for all of them).  Detection runs on the
event-loop thread.

Overload degrades gracefully instead of growing the queue without bound:

* the ingress queue is bounded at ``serve.queue_capacity``; a full queue
  either rejects the newcomer (``reject-new``) or evicts the oldest queued
  request (``shed-oldest``),
* started tier batches are bounded per tier by ``serve.tier_concurrency``
  slots; when a tier is saturated, starting its next batch blocks the
  micro-batcher, the queue fills, and admission control takes over — that
  chain is the backpressure,
* requests older than ``serve.effective_max_age_ms`` are shed instead of
  being served hopelessly late — checked at dispatch *and* again once a tier
  slot is actually acquired (the semaphore wait is unbounded under
  saturation), which is what keeps the *served* p99 inside the SLO while
  overload is shed.

The first shed/reject of a run emits a named :class:`RuntimeWarning` (the
PR 5 pool-fallback convention: overload must be impossible to miss, but once
is enough); every shed is counted and reported.

Service is paced by the simulated HEC delay (``serve.service_time_scale``):
a tier slot is held for the scaled simulated duration of its batch, so
serving throughput is bounded by the simulated hierarchy rather than by how
fast the host spins a for-loop.  Under a link-fault plan each routed share
stays a tier batch of its own, because the plan charges its fault tick and
its retries per batch.

:meth:`IngestServer.drain_and_swap` is the deployment gate: it blocks new
dispatches and tier batches, waits for every started tier batch to complete,
runs the swap against the quiescent system, and resumes.  Queued and routed
requests stay where they are — zero are dropped — and every response
computed after the swap carries the bumped ``model_version``.
"""

from __future__ import annotations

import asyncio
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.evaluation.metrics import confusion_counts
from repro.exceptions import ConfigurationError
from repro.fleet.faults import FaultSchedule, FaultSpec
from repro.obs.export import Telemetry
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.serving.spec import ServingSpec

#: Bucket bounds for the micro-batch and tier-batch size histograms
#: (requests per batch).
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Final request statuses the ``serve_requests_total`` counter is keyed by.
_STATUSES = ("submitted", "served", "rejected", "shed", "expired")

#: Row status codes.  A row leaves ``_PENDING`` exactly once; the two tables
#: map each final code to the status and shed reason its ``ServeResult``
#: reports.
_PENDING, _SERVED, _REJECTED, _EVICTED, _EXPIRED = range(5)
_STATUS_OF = (None, "served", "rejected", "shed", "shed")
_REASON_OF = (None, None, "queue-full", "queue-full", "expired")

#: Per refusal code: its telemetry status, its counter, and what the
#: warn-once message says happened.
_REFUSALS = {
    _REJECTED: ("rejected", "n_rejected", "rejected a new request"),
    _EVICTED: ("shed", "n_shed", "shed the oldest queued request"),
    _EXPIRED: ("expired", "n_expired", "expired a queued request"),
}

#: Stored for a submission without a label or an origin tick.
_MISSING = -1

#: The request table, one column per field, indexed by row id (the order of
#: submission).  The first four are written at admission, the rest once, when
#: the row reaches its final status.
_COLUMNS = (
    ("_arrival", np.float64), ("_device", np.int64), ("_label", np.int64),
    ("_tick", np.int64), ("_status", np.int8), ("_prediction", np.int64),
    ("_score", np.float64), ("_layer", np.int64), ("_delay", np.float64),
    ("_latency", np.float64), ("_version", np.int64),
)


@dataclass(frozen=True)
class ServeResult:
    """What one submitted window got back from the front door."""

    device_id: int
    #: ``"served"``, ``"rejected"`` (refused at admission) or ``"shed"``
    #: (evicted from the queue or expired past its age budget).
    status: str
    prediction: Optional[int] = None
    anomaly_score: Optional[float] = None
    #: The layer that actually served the request (after failover, if any).
    layer: Optional[int] = None
    #: The simulated HEC end-to-end delay of this request.
    simulated_delay_ms: Optional[float] = None
    #: Measured wall-clock latency: scheduled arrival -> completed response.
    latency_ms: Optional[float] = None
    #: ``HECSystem.state_version`` at compute time — how the drain-and-swap
    #: tests prove post-swap responses come from the new deployment.
    model_version: Optional[int] = None
    #: Ground-truth label carried through from the load generator, if known.
    label: Optional[int] = None
    #: ``"queue-full"`` or ``"expired"`` for rejected/shed results.
    shed_reason: Optional[str] = None

    @property
    def served(self) -> bool:
        return self.status == "served"


class _Row:
    """What :meth:`IngestServer.submit` returns: await it for the row's result."""

    __slots__ = ("server", "row")

    def __init__(self, server: "IngestServer", row: int) -> None:
        self.server = server
        self.row = row

    def __await__(self):
        server, row = self.server, self.row
        yield from server._until(lambda: server._status[row] != _PENDING).__await__()
        return server.results(row, row + 1)[0]


class IngestServer:
    """Async request/response serving over a trained HEC system."""

    def __init__(
        self,
        system,
        policy,
        context_extractor,
        serving: ServingSpec,
        *,
        tier_names: Optional[Sequence[str]] = None,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultSpec] = None,
    ) -> None:
        if policy.n_actions != system.n_layers:
            raise ConfigurationError(
                f"policy selects between {policy.n_actions} actions but the "
                f"system has {system.n_layers} layers"
            )
        self.system = system
        self.policy = policy
        self.context_extractor = context_extractor
        self.serving = serving
        if tier_names is None:
            tier_names = tuple(f"layer-{i}" for i in range(system.n_layers))
        if len(tier_names) != system.n_layers:
            raise ConfigurationError(
                f"got {len(tier_names)} tier names for {system.n_layers} layers"
            )
        self.tier_names = tuple(tier_names)

        # -- counters & metrics (read by report_from_server) --------------------
        self.n_submitted = 0
        self.n_served = 0
        self.n_rejected = 0   # refused at admission (reject-new)
        self.n_shed = 0       # evicted from the queue (shed-oldest)
        self.n_expired = 0    # past the age budget at dispatch
        self.n_batches = 0
        self.batched_requests = 0
        self.max_batch_size = 0
        self.n_swaps = 0
        self.swap_versions: List[int] = []
        # -- serving-path fault injection ---------------------------------------
        #: The experiment's fault plan; link windows are keyed by the origin
        #: fleet tick each request carries (pure, wall-clock-free), so which
        #: batches hit a partition is deterministic under a fixed seed.
        self.faults = faults
        self._fault_schedule: Optional[FaultSchedule] = None
        if faults is not None and faults.events:
            schedule = FaultSchedule(faults)
            if schedule.has_link_faults:
                self._fault_schedule = schedule
        #: Retry-with-backoff attempts spent on batches whose chosen tier sat
        #: behind a down link before failing over (report + contract input).
        self.n_retries = 0
        self._fault_tick = 0
        self.tier_served = np.zeros(system.n_layers, dtype=np.int64)
        self.tier_redirected = np.zeros(system.n_layers, dtype=np.int64)

        # -- telemetry (optional; every hot site pays one `is None` check) ------
        self.telemetry = telemetry
        if telemetry is not None:
            registry = telemetry.registry
            status_family = registry.counter(
                "serve_requests_total",
                "Requests by final status.",
                labelnames=("status",),
            )
            self._tel_status = {
                status: status_family.labels(status=status) for status in _STATUSES
            }
            tier_family = registry.counter(
                "serve_tier_requests_total",
                "Requests served per tier (post-failover accounting).",
                labelnames=("tier",),
            )
            self._tel_tiers = [
                tier_family.labels(tier=tier) for tier in self.tier_names
            ]
            self._tel_queue_wait = registry.histogram(
                "serve_queue_wait_ms",
                "Queue wait from scheduled arrival to dispatch.",
                buckets=DEFAULT_BUCKETS,
            )
            self._tel_batch_size = registry.histogram(
                "serve_batch_size",
                "Requests per dispatched micro-batch.",
                buckets=_BATCH_BUCKETS,
            )
            self._tel_tier_batch_size = registry.histogram(
                "serve_tier_batch_size",
                "Requests per tier batch (one detection call).",
                buckets=_BATCH_BUCKETS,
            )
            self._tel_latency = registry.histogram(
                "serve_latency_ms",
                "Measured wall-clock service latency.",
                buckets=DEFAULT_BUCKETS,
            )
            self._tel_swaps = registry.counter(
                "serve_swaps_total", "Drain-and-swap deployments landed."
            )
            self._tel_queue_depth = registry.gauge(
                "serve_queue_depth",
                "Peak ingress queue depth observed (gauges merge by max).",
            )
            self._tel_retries = registry.counter(
                "serve_retries_total",
                "Backoff retries against tiers behind a down link.",
            )

        # -- the request table (grows by doubling; row ids never move) ----------
        for name, dtype in _COLUMNS:
            setattr(self, name, np.zeros(serving.max_requests, dtype=dtype))
        #: The window of each queued row, dropped as the row leaves the queue.
        self._windows: Dict[int, np.ndarray] = {}
        #: Open ``serve.request`` spans by row (tracing telemetry only).
        self._spans: Dict[int, object] = {}

        # -- runtime state (created by start()) ---------------------------------
        self._queue: Deque[int] = deque()
        self._started = False
        self._closing = False
        self._warned_overload = False
        self._inflight = 0
        self._tier_tasks: Set[asyncio.Task] = set()
        #: Per tier, the routed shares waiting for a tier batch, oldest first:
        #: ``(routing time, rows, windows)``; and how many rows they hold.
        self._routed: List[Deque[Tuple[float, np.ndarray, np.ndarray]]] = [
            deque() for _ in range(system.n_layers)
        ]
        self._routed_rows = [0] * system.n_layers
        #: The first exception a micro-batch raised; waiters re-raise it.
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._batcher: Optional[asyncio.Task] = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Reset the system for serving and start the micro-batcher."""
        if self._started:
            raise ConfigurationError("IngestServer.start() called twice")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        #: Set whenever rows reach their final status (the one completion path).
        self._progress = asyncio.Event()
        self._gate = asyncio.Lock()
        self._idle = asyncio.Event()
        self._idle.set()
        self._sems = [
            asyncio.Semaphore(self.serving.tier_concurrency)
            for _ in range(self.system.n_layers)
        ]
        # The engine's serving preamble: fresh clock/counters, warmed links.
        self.system.reset()
        self.system.topology.warm_links()
        if self.faults is not None:
            self.system.configure_failover(
                self.faults.failover_retries, self.faults.retry_timeout_ms
            )
        self._batcher = self._loop.create_task(self._run())

    async def stop(self) -> None:
        """Flush the remaining queue and the routed tier queues, wait for
        in-flight work, shut down."""
        if not self._started:
            return
        self._closing = True
        self._wake.set()
        await self._batcher
        await self._idle.wait()
        if self._fault_schedule is not None:
            # Leave the topology healthy for whoever uses the system next.
            for link in self.system.topology.links:
                link.set_status("up")

    # -- ingestion --------------------------------------------------------------

    def submit(
        self,
        device_id: int,
        window: np.ndarray,
        label: Optional[int] = None,
        arrival_time: Optional[float] = None,
        tick: Optional[int] = None,
    ) -> _Row:
        """Admit one window now; the returned awaitable resolves to its result.

        Admission control has run when this returns.  A caller may drop the
        awaitable and wait on :meth:`settled` instead.

        ``arrival_time`` (event-loop clock) lets an open-loop generator pass
        the *scheduled* send time, so measured latency includes any lag the
        caller accumulated — coordinated-omission-free percentiles.
        ``tick`` carries the window's origin fleet tick; with a fault plan
        configured it selects which link faults cover the request.  Labels
        are the 0/1 anomaly flags.
        """
        if not self._started or self._closing:
            raise ConfigurationError(
                "IngestServer.submit() needs a started, not-yet-stopped server"
            )
        row = self.n_submitted
        if row == len(self._status):
            self._grow()
        self.n_submitted = row + 1
        self._arrival[row] = self._loop.time() if arrival_time is None else arrival_time
        self._device[row] = device_id
        self._label[row] = _MISSING if label is None else label
        self._tick[row] = _MISSING if tick is None else tick
        telemetry = self.telemetry
        if telemetry is not None:
            self._tel_status["submitted"].value += 1
        queue = self._queue
        if len(queue) >= self.serving.queue_capacity:
            if self.serving.shed_policy == "reject-new":
                self._refuse(row, _REJECTED, policy="reject-new", queue_depth=len(queue))
                return _Row(self, row)
            oldest = queue.popleft()
            self._refuse(oldest, _EVICTED, policy="shed-oldest", queue_depth=len(queue) + 1)
        if telemetry is not None and telemetry.trace_enabled:
            self._spans[row] = telemetry.tracer.start_span(
                "serve.request", device_id=int(device_id)
            )
        self._windows[row] = window
        queue.append(row)
        if telemetry is not None:
            self._tel_queue_depth.set_max(len(queue))
        self._wake.set()
        return _Row(self, row)

    async def settled(self) -> None:
        """Wait until every submitted request has its final status.

        Re-raises the exception of a failed micro-batch instead of waiting
        for requests that will never finish.
        """
        await self._until(lambda: self.n_submitted == self.n_served + self.total_shed)

    def results(self, start: int = 0, stop: Optional[int] = None) -> List[ServeResult]:
        """The results of rows ``start:stop`` in submission order.

        Every row in the range must have its final status, as all do once
        :meth:`settled` returns.
        """
        rows = slice(start, self.n_submitted if stop is None else stop)
        names = ("_status", "_device", "_label", "_prediction", "_score", "_layer",
                 "_delay", "_latency", "_version")
        results = []
        for status, device, label, *served in zip(
            *(getattr(self, name)[rows].tolist() for name in names)
        ):
            label = None if label == _MISSING else label
            if status == _SERVED:
                results.append(ServeResult(device, "served", *served, label))
            else:
                results.append(ServeResult(
                    device, _STATUS_OF[status], label=label, shed_reason=_REASON_OF[status]
                ))
        return results

    @property
    def confusion(self) -> np.ndarray:
        """``[tp, fp, tn, fn]`` over the served requests that carry a label."""
        n = self.n_submitted
        labels = self._label[:n]
        scored = (self._status[:n] == _SERVED) & (labels != _MISSING)
        return confusion_counts(self._prediction[:n][scored], labels[scored])

    def served(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, simulated delays, latencies)`` of the served requests, in
        row order: the report reads its exact totals, the latency maximum and
        the row-keyed latency sample off these, so none of them depends on
        the order in which tier batches completed."""
        n = self.n_submitted
        rows = np.flatnonzero(self._status[:n] == _SERVED)
        return rows, self._delay[rows], self._latency[rows]

    @property
    def total_shed(self) -> int:
        """Everything that did not get served: rejected + evicted + expired."""
        return self.n_rejected + self.n_shed + self.n_expired

    # -- deployment gate --------------------------------------------------------

    async def drain_and_swap(self, swap: Callable[[], object]):
        """Land a deployment between micro-batches; returns ``swap()``'s result.

        Holds the dispatch gate (no micro-batch dispatches and no tier batch
        starts), waits for every started tier batch to complete, runs
        ``swap()`` in the event loop thread against the now-quiescent system,
        and resumes.  Queued and routed requests stay where they are —
        nothing is dropped or recomputed — and every response computed
        afterwards, routed rows included, carries the bumped
        ``state_version``.
        """
        async with self._gate:
            await self._idle.wait()
            result = swap()
            self.n_swaps += 1
            self.swap_versions.append(int(self.system.state_version))
            if self.telemetry is not None:
                self._tel_swaps.inc()
                self.telemetry.event(
                    "serve.swap",
                    version=int(self.system.state_version),
                    n_swaps=self.n_swaps,
                )
            return result

    # -- internals --------------------------------------------------------------

    def _grow(self) -> None:
        for name, _ in _COLUMNS:
            column = getattr(self, name)
            setattr(self, name, np.concatenate([column, np.zeros_like(column)]))

    async def _until(self, done: Callable[[], bool]) -> None:
        """Wait until ``done()`` holds, re-checking whenever rows finish."""
        while not done():
            if self._error is not None:
                raise self._error
            self._progress.clear()
            await self._progress.wait()

    def _fail(self, exc: BaseException) -> None:
        if self._error is None:
            self._error = exc
        self._progress.set()

    def _refuse(self, row: int, code: int, **fields) -> None:
        """Give ``row`` its final refusal: count it, log it, warn once.

        The warn-once RuntimeWarning stays the human-facing signal; with
        telemetry on, the ``serve.overload`` event is the machine-readable
        record of *every* refusal with its full context.
        """
        status, counter, what = _REFUSALS[code]
        setattr(self, counter, getattr(self, counter) + 1)
        if self.telemetry is not None:
            self._tel_status[status].value += 1
            self.telemetry.event(
                "serve.overload", reason=status, device_id=int(self._device[row]), **fields
            )
        if not self._warned_overload:
            # Silent load shedding turns an overloaded server into a mystery,
            # but warning per request would melt the log — so name the
            # condition once per run and count the rest (see the serving
            # report's shed counters).
            self._warned_overload = True
            warnings.warn(
                f"serving ingress overloaded: {what} "
                f"(queue_capacity={self.serving.queue_capacity}, "
                f"shed_policy={self.serving.shed_policy!r}); further sheds are "
                "counted silently and reported in the serving report",
                RuntimeWarning,
                stacklevel=3,
            )
        self._status[row] = code
        self._windows.pop(row, None)
        span = self._spans.pop(row, None)
        if span is not None:
            span.end(status="shed", shed_reason=_REASON_OF[code])
        self._progress.set()

    async def _apply_link_faults(self, layer: int, rows: np.ndarray) -> None:
        """Set the links as the fault plan has them at the batch's tick.

        The newest origin tick in the batch wins; tickless submissions inherit
        the latest tick seen, so the fault clock never runs backwards.  If a
        link on the uplinks to ``layer`` (links ``0..layer-1``, read from the
        schedule, not the shared link state) is down at that tick, the batch
        first spends the failover retry budget, backing off exponentially
        from the scaled ``retry_timeout_ms``; the system's failover then
        redirects it, charging the retries to its simulated delay.
        """
        ticks = self._tick[rows]
        ticks = ticks[ticks != _MISSING]
        tick = int(ticks.max()) if ticks.size else self._fault_tick
        self._fault_tick = max(self._fault_tick, tick)
        if any(index < layer for index in self._fault_schedule.down_links(tick)):
            backoff = self.faults.retry_timeout_ms * self.serving.service_time_scale / 1000.0
            for attempt in range(self.faults.failover_retries):
                self.n_retries += 1
                if self.telemetry is not None:
                    self._tel_retries.inc()
                    self.telemetry.event(
                        "serve.retry", tier=self.tier_names[layer], tick=tick,
                        attempt=attempt + 1,
                    )
                if backoff > 0:
                    await asyncio.sleep(backoff)
                backoff *= 2.0
        self._fault_schedule.apply_links(self.system, tick)

    async def _run(self) -> None:
        """The micro-batcher: collect, then dispatch under the swap gate.

        Before it waits on an empty ingress queue, and before it closes, it
        starts every routed row's tier batch (rule (c) of
        :meth:`_start_tier_batches`), so an idle server holds no routed row.
        """
        serving = self.serving
        queue = self._queue
        try:
            while True:
                while not queue:
                    if any(self._routed_rows):
                        await self._flush_routed()
                        continue
                    if self._closing:
                        return
                    self._wake.clear()
                    await self._wake.wait()
                batch = [queue.popleft()]
                deadline = self._loop.time() + serving.max_wait_ms / 1000.0
                while len(batch) < serving.max_batch:
                    if queue:
                        batch.append(queue.popleft())
                        continue
                    if any(self._routed_rows):
                        await self._flush_routed()
                        continue
                    if self._closing:
                        break
                    remaining = deadline - self._loop.time()
                    if remaining <= 0:
                        break
                    # A timer, not asyncio.wait_for: on Python 3.11 wait_for
                    # can swallow a cancellation that races the wake-up,
                    # leaving the batcher running after its loop is closed.
                    self._wake.clear()
                    timer = self._loop.call_later(remaining, self._wake.set)
                    try:
                        await self._wake.wait()
                    finally:
                        timer.cancel()
                async with self._gate:
                    await self._dispatch(batch)
        except Exception as exc:
            self._fail(exc)
            raise

    async def _flush_routed(self) -> None:
        async with self._gate:
            await self._start_tier_batches(flush=True)

    async def _dispatch(self, batch: List[int]) -> None:
        """Expire stale requests, route the rest, start the tier batches due.

        Runs while holding the dispatch gate.  Each tier's share of the
        micro-batch joins that tier's routed queue, stamped with the routing
        time; :meth:`_start_tier_batches` then cuts the batches that are due.
        """
        now = self._loop.time()
        telemetry = self.telemetry
        rows = np.array(batch)
        waits = now - self._arrival[rows]
        stale = waits > self.serving.effective_max_age_ms / 1000.0
        if stale.any():
            for row in rows[stale].tolist():
                self._refuse(row, _EXPIRED, stage="dispatch")
            rows, waits = rows[~stale], waits[~stale]
            if not rows.size:
                return
        windows = np.asarray(
            np.stack([self._windows.pop(row) for row in rows.tolist()]), dtype=float
        )
        contexts = self.context_extractor.extract(windows)
        actions = np.asarray(self.policy.select_actions(contexts, greedy=True))
        n = len(rows)
        self.n_batches += 1
        self.batched_requests += n
        self.max_batch_size = max(self.max_batch_size, n)
        if telemetry is not None:
            self._tel_batch_size.observe(n)
            for row, wait_ms in zip(rows.tolist(), (waits * 1000.0).tolist()):
                self._tel_queue_wait.observe(wait_ms)
                span = self._spans.get(row)
                if span is not None:
                    span.set_attribute("queue_ms", wait_ms)
        for action in np.unique(actions).tolist():
            chosen = np.flatnonzero(actions == action)
            self._routed[action].append((now, rows[chosen], windows[chosen]))
            self._routed_rows[action] += len(chosen)
        # Under a link-fault plan a share is charged its fault tick and its
        # retries as a batch of its own, so it starts at once, alone.
        await self._start_tier_batches(flush=self._fault_schedule is not None)

    async def _start_tier_batches(self, flush: bool) -> None:
        """Cut and start each tier batch that is due, oldest rows first.

        Runs while holding the dispatch gate.  A tier's batch is due when
        (a) its routed queue holds ``max_batch`` rows, (b) its oldest routed
        row has waited ``max_wait_ms``, or (c) ``flush``: the micro-batcher
        is about to wait on an empty ingress queue or to close.  Without (b)
        a minority tier's rows would wait for a full batch while an
        overloaded batcher never goes idle.  Acquiring a saturated tier's
        slot blocks *here*, which stalls the batcher, fills the ingress
        queue and triggers admission control — the backpressure chain.
        """
        max_batch = self.serving.max_batch
        max_wait = self.serving.max_wait_ms / 1000.0
        for layer, shares in enumerate(self._routed):
            while shares and (
                flush
                or self._routed_rows[layer] >= max_batch
                or self._loop.time() - shares[0][0] >= max_wait
            ):
                rows, windows = self._cut(layer)
                sem = self._sems[layer]
                await sem.acquire()
                self._inflight += 1
                self._idle.clear()
                task = self._loop.create_task(self._serve_tier(layer, windows, rows, sem))
                self._tier_tasks.add(task)
                task.add_done_callback(self._tier_tasks.discard)

    def _cut(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        """Take the oldest ``max_batch`` routed rows of ``layer`` as
        ``(rows, windows)``."""
        shares = self._routed[layer]
        room = self.serving.max_batch
        rows, windows = [], []
        while shares and room:
            routed_at, share_rows, share_windows = shares[0]
            if len(share_rows) <= room:
                shares.popleft()
            else:
                shares[0] = (routed_at, share_rows[room:], share_windows[room:])
                share_rows, share_windows = share_rows[:room], share_windows[:room]
            rows.append(share_rows)
            windows.append(share_windows)
            room -= len(share_rows)
        self._routed_rows[layer] -= sum(len(part) for part in rows)
        if len(rows) == 1:
            return rows[0], windows[0]
        return np.concatenate(rows), np.concatenate(windows)

    async def _serve_tier(
        self, layer: int, windows: np.ndarray, rows: np.ndarray, sem: asyncio.Semaphore
    ) -> None:
        try:
            # Second expiry check: the batch may have aged past its budget
            # while waiting for this tier's slot, and serving it anyway would
            # push the *served* latency tail past the SLO the shed deadline
            # exists to protect.
            arrivals = self._arrival[rows]
            fresh = self._loop.time() - arrivals <= self.serving.effective_max_age_ms / 1000.0
            if not fresh.all():
                for row in rows[~fresh].tolist():
                    self._refuse(row, _EXPIRED, stage="tier-slot")
                rows, windows, arrivals = rows[fresh], windows[fresh], arrivals[fresh]
            if not rows.size:
                return
            telemetry = self.telemetry
            batch_span = None
            if telemetry is not None:
                self._tel_tier_batch_size.observe(len(rows))
                if telemetry.trace_enabled:
                    batch_span = telemetry.tracer.start_span(
                        "serve.batch", tier=self.tier_names[layer], n=len(rows)
                    )
            if self._fault_schedule is not None:
                await self._apply_link_faults(layer, rows)
            # No await since the links were set: no other batch sees them torn.
            detected = self.system.detect_batch(layer, windows)
            # Safe to read outside the gate: a swap needs the in-flight count
            # (which includes this task) to reach zero first.
            version = int(self.system.state_version)
            scale = self.serving.service_time_scale
            if scale > 0:
                await asyncio.sleep(float(detected.delays_ms.max()) * scale / 1000.0)
            done = self._loop.time()
            served = int(detected.layer)
            n = len(rows)
            latencies = (done - arrivals) * 1000.0
            self.n_served += n
            self.tier_served[served] += n
            if served != layer:
                self.tier_redirected[served] += n
            if telemetry is not None:
                self._tel_status["served"].value += n
                self._tel_tiers[served].value += n
                for value in latencies.tolist():
                    self._tel_latency.observe(value)
                if batch_span is not None:
                    batch_span.end(
                        tier=self.tier_names[served], model_version=version
                    )
                if telemetry.watcher is not None:
                    # Progress key = requests served so far; the watcher
                    # decides the cadence.  The instantaneous queue depth
                    # rides on the watch.rollup event for the live views.
                    telemetry.watcher.observe(
                        float(self.n_served), queue_depth=len(self._queue)
                    )
            if self._spans:
                tier = self.tier_names[served]
                for row, latency in zip(rows.tolist(), latencies.tolist()):
                    span = self._spans.pop(row, None)
                    if span is not None:
                        span.end(status="served", tier=tier, model_version=version,
                                 latency_ms=latency)
            self._status[rows] = _SERVED
            self._prediction[rows] = detected.predictions
            self._score[rows] = detected.anomaly_scores
            self._layer[rows] = served
            self._delay[rows] = detected.delays_ms
            self._latency[rows] = latencies
            self._version[rows] = version
            self._progress.set()
        except Exception as exc:
            # Delivered to every waiter (``settled`` and each awaited row),
            # which re-raise it instead of waiting for rows that never finish.
            self._fail(exc)
        finally:
            sem.release()
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
