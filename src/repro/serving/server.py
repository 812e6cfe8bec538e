"""The asyncio ingestion front door: micro-batching, backpressure, drain-and-swap.

:class:`IngestServer` accepts per-device window submissions
(:meth:`IngestServer.submit`), coalesces them across devices with a tunable
micro-batcher — a batch flushes once it holds ``serve.max_batch`` requests or
once its oldest request has waited ``serve.max_wait_ms``, whichever first —
and routes each flushed batch through the trained policy into
:meth:`~repro.hec.simulation.HECSystem.detect_batch_columnar`.  Every
submission resolves to a :class:`ServeResult`; served results carry the
prediction, the simulated HEC delay, the *measured* wall-clock service
latency (scheduled arrival to completed response, so a backlog cannot hide
behind coordinated omission) and the model version that computed them.

Overload degrades gracefully instead of growing the queue without bound:

* the ingress queue is bounded at ``serve.queue_capacity``; a full queue
  either rejects the newcomer (``reject-new``) or evicts the oldest queued
  request (``shed-oldest``),
* dispatched batches are bounded per tier by ``serve.tier_concurrency``
  slots; when a tier is saturated, dispatch blocks, the queue fills, and
  admission control takes over — that chain is the backpressure,
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
fast the host spins a for-loop.  The raw detector compute runs on a
single-worker thread pool — :class:`~repro.hec.simulation.HECSystem` mutates
its event clock and counters and is not thread-safe, so compute serialises
there while the event loop stays free to admit (or shed) arrivals.

:meth:`IngestServer.drain_and_swap` is the deployment gate: it blocks new
dispatches, waits for every in-flight batch to complete, runs the swap
against the quiescent system, and resumes.  Queued requests stay queued —
zero are dropped — and every response computed after the swap carries the
bumped ``model_version``.
"""

from __future__ import annotations

import asyncio
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fleet.faults import FaultSchedule, FaultSpec
from repro.fleet.metrics import DelayReservoir, confusion_counts
from repro.obs.export import Telemetry
from repro.obs.metrics import DEFAULT_BUCKETS
from repro.serving.spec import ServingSpec

#: SeedSequence entropy tag for the serving latency reservoir.
_SERVE_TAG = 0x5E21

#: Bucket bounds for the micro-batch size histogram (requests per batch).
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Final request statuses the ``serve_requests_total`` counter is keyed by.
_STATUSES = ("submitted", "served", "rejected", "shed", "expired")


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


class _Pending:
    """One queued submission awaiting its micro-batch."""

    __slots__ = ("device_id", "window", "label", "arrival_time", "future", "span", "tick")

    def __init__(self, device_id, window, label, arrival_time, future, span=None, tick=None):
        self.device_id = device_id
        self.window = window
        self.label = label
        self.arrival_time = arrival_time
        self.future = future
        self.span = span
        #: Origin fleet tick of the window (drives serving fault windows).
        self.tick = tick


class IngestServer:
    """Async request/response serving over a trained HEC system."""

    def __init__(
        self,
        system,
        policy,
        context_extractor,
        serving: ServingSpec,
        *,
        master_seed: int = 0,
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
        self.latency = DelayReservoir(
            serving.reservoir_size, (master_seed, serving.seed, _SERVE_TAG)
        )
        self.tier_served = np.zeros(system.n_layers, dtype=np.int64)
        self.tier_redirected = np.zeros(system.n_layers, dtype=np.int64)
        self.confusion = np.zeros(4, dtype=np.int64)
        self.simulated_delay_sum = 0.0
        # Exact mean/max live outside the reservoir (which only samples).
        self.latency_sum_ms = 0.0
        self.latency_max_ms = 0.0

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

        # -- runtime state (created by start()) ---------------------------------
        self._queue: Deque[_Pending] = deque()
        self._started = False
        self._closing = False
        self._warned_overload = False
        self._inflight = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._batcher: Optional[asyncio.Task] = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Reset the system for serving and start the micro-batcher."""
        if self._started:
            raise ConfigurationError("IngestServer.start() called twice")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._gate = asyncio.Lock()
        self._idle = asyncio.Event()
        self._idle.set()
        self._sems = [
            asyncio.Semaphore(self.serving.tier_concurrency)
            for _ in range(self.system.n_layers)
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-detect"
        )
        # The engine's serving preamble: fresh clock/counters, warmed links.
        self.system.reset()
        self.system.topology.warm_links()
        if self.faults is not None:
            self.system.configure_failover(
                self.faults.failover_retries, self.faults.retry_timeout_ms
            )
        self._batcher = self._loop.create_task(self._run())

    async def stop(self) -> None:
        """Flush the remaining queue, wait for in-flight work, shut down."""
        if not self._started:
            return
        self._closing = True
        self._wake.set()
        await self._batcher
        await self._idle.wait()
        self._executor.shutdown(wait=True)
        if self._fault_schedule is not None:
            # Leave the topology healthy for whoever uses the system next.
            for link in self.system.topology.links:
                link.set_status("up")

    # -- ingestion --------------------------------------------------------------

    async def submit(
        self,
        device_id: int,
        window: np.ndarray,
        label: Optional[int] = None,
        arrival_time: Optional[float] = None,
        tick: Optional[int] = None,
    ) -> ServeResult:
        """Submit one window; resolves when served, rejected or shed.

        ``arrival_time`` (event-loop clock) lets an open-loop generator pass
        the *scheduled* send time, so measured latency includes any lag the
        caller accumulated — coordinated-omission-free percentiles.
        ``tick`` carries the window's origin fleet tick; with a fault plan
        configured it selects which link faults cover the request.
        """
        if not self._started or self._closing:
            raise ConfigurationError(
                "IngestServer.submit() needs a started, not-yet-stopped server"
            )
        now = self._loop.time()
        arrival = now if arrival_time is None else float(arrival_time)
        self.n_submitted += 1
        telemetry = self.telemetry
        if telemetry is not None:
            self._tel_status["submitted"].value += 1
        serving = self.serving
        if len(self._queue) >= serving.queue_capacity:
            if serving.shed_policy == "reject-new":
                self.n_rejected += 1
                if telemetry is not None:
                    self._tel_overload(
                        "rejected",
                        policy="reject-new",
                        device_id=int(device_id),
                        queue_depth=len(self._queue),
                    )
                self._warn_overload_once("rejected a new request")
                return ServeResult(
                    device_id=int(device_id),
                    status="rejected",
                    label=label,
                    shed_reason="queue-full",
                )
            oldest = self._queue.popleft()
            self.n_shed += 1
            if telemetry is not None:
                self._tel_overload(
                    "shed",
                    policy="shed-oldest",
                    device_id=oldest.device_id,
                    queue_depth=len(self._queue) + 1,
                )
            self._warn_overload_once("shed the oldest queued request")
            self._resolve_shed(oldest, "queue-full")
        future = self._loop.create_future()
        span = None
        if telemetry is not None and telemetry.trace_enabled:
            span = telemetry.tracer.start_span(
                "serve.request", device_id=int(device_id)
            )
        self._queue.append(
            _Pending(int(device_id), np.asarray(window, dtype=float), label,
                     arrival, future, span,
                     tick if tick is None else int(tick))
        )
        if telemetry is not None:
            self._tel_queue_depth.set_max(len(self._queue))
        self._wake.set()
        return await future

    @property
    def total_shed(self) -> int:
        """Everything that did not get served: rejected + evicted + expired."""
        return self.n_rejected + self.n_shed + self.n_expired

    # -- deployment gate --------------------------------------------------------

    async def drain_and_swap(self, swap: Callable[[], object]):
        """Land a deployment between micro-batches; returns ``swap()``'s result.

        Holds the dispatch gate (no new micro-batch dispatches), waits for
        every in-flight tier batch to complete, runs ``swap()`` in the event
        loop thread against the now-quiescent system, and resumes.  Queued
        requests stay queued — nothing is dropped or recomputed — and every
        response computed afterwards carries the bumped ``state_version``.
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

    def _warn_overload_once(self, what: str) -> None:
        # Satellite contract: silent load shedding turns an overloaded server
        # into a mystery, but warning per request would melt the log — so name
        # the condition once per run and count the rest (see the serving
        # report's shed counters).
        if self._warned_overload:
            return
        self._warned_overload = True
        serving = self.serving
        warnings.warn(
            f"serving ingress overloaded: {what} "
            f"(queue_capacity={serving.queue_capacity}, "
            f"shed_policy={serving.shed_policy!r}); further sheds are counted "
            "silently and reported in the serving report",
            RuntimeWarning,
            stacklevel=3,
        )

    def _tel_overload(self, status: str, **fields) -> None:
        """Count + structurally log one overload decision (telemetry on).

        The warn-once RuntimeWarning stays the human-facing signal; this is
        the machine-readable record of *every* shed with its full context.
        """
        self._tel_status[status].value += 1
        self.telemetry.event("serve.overload", reason=status, **fields)

    def _resolve_shed(self, pending: _Pending, reason: str) -> None:
        if pending.span is not None:
            pending.span.end(status="shed", shed_reason=reason)
            pending.span = None
        if not pending.future.done():
            pending.future.set_result(
                ServeResult(
                    device_id=pending.device_id,
                    status="shed",
                    label=pending.label,
                    shed_reason=reason,
                )
            )

    # -- serving-path fault injection -------------------------------------------

    def _batch_tick(self, pending: List[_Pending]) -> Optional[int]:
        """The fault tick governing a batch (``None`` without a fault plan).

        Requests carry their origin fleet tick; the newest one in the batch
        wins, and tickless submissions inherit the latest tick seen so far —
        the fault clock never runs backwards.
        """
        if self._fault_schedule is None:
            return None
        ticks = [p.tick for p in pending if p.tick is not None]
        tick = max(ticks) if ticks else self._fault_tick
        if tick > self._fault_tick:
            self._fault_tick = tick
        return tick

    def _tier_partitioned(self, layer: int, tick: int) -> bool:
        """Whether ``layer`` sits behind a link scheduled down at ``tick``.

        Computed purely from the fault schedule (never from the shared
        system, which only the detect executor thread may touch): the uplink
        chain to ``layer`` is links ``0..layer-1``.
        """
        down = self._fault_schedule.down_links(tick)
        return any(index < layer for index in down)

    async def _retry_with_backoff(self, layer: int, tick: int) -> None:
        """Spend the failover retry budget against a partitioned tier.

        Exponential backoff starting at ``retry_timeout_ms`` (scaled like
        service pacing by ``service_time_scale``); the partition state is a
        pure function of the batch's tick, so once the budget is spent the
        batch proceeds and the system's failover redirects it to the best
        reachable tier with the retry delay charged to its simulated delay.
        """
        backoff = (
            self.faults.retry_timeout_ms
            * self.serving.service_time_scale
            / 1000.0
        )
        for attempt in range(self.faults.failover_retries):
            self.n_retries += 1
            if self.telemetry is not None:
                self._tel_retries.inc()
                self.telemetry.event(
                    "serve.retry",
                    tier=self.tier_names[layer],
                    tick=int(tick),
                    attempt=attempt + 1,
                )
            if backoff > 0:
                await asyncio.sleep(backoff)
            backoff *= 2.0

    def _detect_batch(self, layer: int, windows: np.ndarray, tick: Optional[int]):
        """Detect one batch, applying the tick's link faults first.

        Runs on the single-worker detect executor, which serialises the link
        mutation with every other batch's detection — concurrent tier tasks
        can never observe a torn link state.
        """
        if self._fault_schedule is not None and tick is not None:
            self._fault_schedule.apply_links(self.system, tick)
        return self.system.detect_batch_columnar(layer, windows)

    async def _run(self) -> None:
        """The micro-batcher: collect, then dispatch under the swap gate."""
        serving = self.serving
        while True:
            while not self._queue:
                if self._closing:
                    return
                self._wake.clear()
                await self._wake.wait()
            batch = [self._queue.popleft()]
            deadline = self._loop.time() + serving.max_wait_ms / 1000.0
            while len(batch) < serving.max_batch:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                if self._closing:
                    break
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
            async with self._gate:
                await self._dispatch(batch)

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Expire stale requests, route the rest, hand each tier its share.

        Runs while holding the dispatch gate.  Acquiring a saturated tier's
        slot blocks *here*, which stalls the batcher, fills the ingress queue
        and triggers admission control — the backpressure chain.
        """
        now = self._loop.time()
        age_budget = self.serving.effective_max_age_ms / 1000.0
        telemetry = self.telemetry
        live = []
        for pending in batch:
            if now - pending.arrival_time > age_budget:
                self.n_expired += 1
                if telemetry is not None:
                    self._tel_overload(
                        "expired", stage="dispatch", device_id=pending.device_id
                    )
                self._warn_overload_once("expired a queued request")
                self._resolve_shed(pending, "expired")
            else:
                live.append(pending)
        if not live:
            return
        windows = np.stack([pending.window for pending in live])
        contexts = self.context_extractor.extract(windows)
        actions = np.asarray(self.policy.select_actions(contexts, greedy=True))
        self.n_batches += 1
        self.batched_requests += len(live)
        self.max_batch_size = max(self.max_batch_size, len(live))
        if telemetry is not None:
            self._tel_batch_size.observe(len(live))
            for pending in live:
                wait_ms = (now - pending.arrival_time) * 1000.0
                self._tel_queue_wait.observe(wait_ms)
                if pending.span is not None:
                    pending.span.set_attribute("queue_ms", wait_ms)
        for action in np.unique(actions):
            chosen = np.flatnonzero(actions == action)
            sem = self._sems[int(action)]
            await sem.acquire()
            self._inflight += 1
            self._idle.clear()
            self._loop.create_task(
                self._serve_tier(
                    int(action),
                    windows[chosen],
                    [live[i] for i in chosen],
                    sem,
                )
            )

    async def _serve_tier(
        self,
        layer: int,
        windows: np.ndarray,
        pending: List[_Pending],
        sem: asyncio.Semaphore,
    ) -> None:
        try:
            # Second expiry check: the batch may have aged past its budget
            # while waiting for this tier's slot, and serving it anyway would
            # push the *served* latency tail past the SLO the shed deadline
            # exists to protect.
            now = self._loop.time()
            age_budget = self.serving.effective_max_age_ms / 1000.0
            fresh = [
                i for i, p in enumerate(pending)
                if now - p.arrival_time <= age_budget
            ]
            if len(fresh) < len(pending):
                stale = set(range(len(pending))) - set(fresh)
                for i in stale:
                    self.n_expired += 1
                    if self.telemetry is not None:
                        self._tel_overload(
                            "expired",
                            stage="tier-slot",
                            device_id=pending[i].device_id,
                        )
                    self._warn_overload_once("expired a queued request")
                    self._resolve_shed(pending[i], "expired")
                pending = [pending[i] for i in fresh]
                windows = windows[fresh]
            if not pending:
                return
            telemetry = self.telemetry
            batch_span = None
            if telemetry is not None and telemetry.trace_enabled:
                batch_span = telemetry.tracer.start_span(
                    "serve.batch", tier=self.tier_names[layer], n=len(pending)
                )
            batch_tick = self._batch_tick(pending)
            if batch_tick is not None and self._tier_partitioned(layer, batch_tick):
                await self._retry_with_backoff(layer, batch_tick)
            detected = await self._loop.run_in_executor(
                self._executor, self._detect_batch, layer, windows, batch_tick
            )
            # Safe to read outside the gate: a swap needs the in-flight count
            # (which includes this task) to reach zero first.
            version = int(self.system.state_version)
            if self.serving.service_time_scale > 0:
                await asyncio.sleep(
                    float(detected.delays_ms.max())
                    * self.serving.service_time_scale
                    / 1000.0
                )
            done = self._loop.time()
            served = int(detected.layer)
            latencies = (done - np.array([p.arrival_time for p in pending])) * 1000.0
            self.latency.extend(latencies)
            self.latency_sum_ms += float(latencies.sum())
            self.latency_max_ms = max(self.latency_max_ms, float(latencies.max()))
            self.n_served += len(pending)
            self.tier_served[served] += len(pending)
            if served != layer:
                self.tier_redirected[served] += len(pending)
            self.simulated_delay_sum += float(detected.delays_ms.sum())
            if telemetry is not None:
                self._tel_status["served"].value += len(pending)
                self._tel_tiers[served].value += len(pending)
                for value in latencies:
                    self._tel_latency.observe(float(value))
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
            known = [i for i, p in enumerate(pending) if p.label is not None]
            if known:
                self.confusion += confusion_counts(
                    detected.predictions[known],
                    np.array([pending[i].label for i in known]),
                )
            for i, request in enumerate(pending):
                if request.span is not None:
                    request.span.end(
                        status="served",
                        tier=self.tier_names[served],
                        model_version=version,
                        latency_ms=float(latencies[i]),
                    )
                    request.span = None
                if not request.future.done():
                    request.future.set_result(
                        ServeResult(
                            device_id=request.device_id,
                            status="served",
                            prediction=int(detected.predictions[i]),
                            anomaly_score=float(detected.anomaly_scores[i]),
                            layer=served,
                            simulated_delay_ms=float(detected.delays_ms[i]),
                            latency_ms=float(latencies[i]),
                            model_version=version,
                            label=request.label,
                        )
                    )
        except Exception as exc:  # pragma: no cover - defensive
            for request in pending:
                if not request.future.done():
                    request.future.set_exception(exc)
            raise
        finally:
            sem.release()
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
