"""The streaming engines: event-clocked fleet traffic through the HEC system.

:class:`FleetEngine` drains per-tick arrival queues from a
:class:`~repro.fleet.devices.DeviceFleet` through the trained bandit policy
and the HEC system — one context extraction and one policy forward per tick,
one batched detector call per selected layer — feeding a
:class:`~repro.fleet.metrics.StreamingMetrics` aggregator so the full trace
is never materialised.

There is one streaming loop, struct-of-arrays end to end:
:meth:`~repro.fleet.devices.DeviceFleet.arrivals_columnar` arrays in,
:meth:`~repro.hec.simulation.HECSystem.detect_batch_columnar` arrays out,
tick-batched metric/controller feeds, zero per-window objects.  Its reports
are pinned by goldens recorded from the per-window loop it replaced (see
DESIGN.md, "Goldens").

:class:`ShardedFleetEngine` partitions the device ids across worker
processes, runs one :class:`FleetEngine` per shard and merges the per-shard
aggregators in shard order.  Because a device's stream is a function of its
id (not of its shard), the merged counts are independent of the
partitioning, and a single-shard run is bit-identical to the unsharded
engine — a property pinned by the equivalence tests.  A pooled run owns its
worker pool — created for the run, torn down before it returns — and shard
payloads reach the workers zero-copy under ``fork`` (see
:mod:`repro.fleet.sharding`); with ``parallel="auto"`` the engine only forks
when more than one CPU is actually available — on a single-core host the
shards run serially in-process, which is strictly cheaper than time-slicing
workers plus IPC.

Both engines accept an optional adaptation ``controller`` (see
:mod:`repro.adapt.controller`): per tick the engine feeds it every detected
batch and calls its ``end_tick`` hook at the tick boundary, which is where
drift-triggered retrains and atomic detector hot-swaps happen.  With no
controller the streaming loop is unchanged — not a single extra RNG draw —
so a run with adaptation disabled stays bit-identical to the pre-adaptation
engine (pinned by test).

Fault tolerance rides on the same boundaries.  With a ``checkpoint_dir`` the
engine durably snapshots its state (metrics, system, controller) every
``checkpoint_cadence`` ticks through :class:`~repro.fleet.checkpoint.
CheckpointStore`; ``run(resume=True)`` (or :meth:`FleetEngine.resume`)
rebuilds the fleet and continues at the checkpointed tick, bit-identical to
an uninterrupted run — a tick's arrivals need no tick before them, so a
checkpoint stores no stream state and a resume replays nothing.  A
:class:`~repro.fleet.faults.FaultSpec` on the engine drives deterministic
fault injection at tick boundaries: link degradation/outage (the system fails
over to the best reachable tier), injected shard crashes
(:class:`~repro.fleet.faults.WorkerCrash`, recovered by the sharded engine
from the shard's own checkpoints) and mid-run process kills.  One-shot
kill/crash events are disarmed on resumed runs so recovery cannot re-trigger
the fault that killed the original run.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import warnings
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bandit.context import ContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.exceptions import ConfigurationError, ReproError
from repro.fleet import sharding
from repro.fleet.checkpoint import CheckpointStore, shard_checkpoint_dir
from repro.fleet.devices import DeviceFleet, WindowPool
from repro.fleet.faults import FaultSchedule, FaultSpec, WorkerCrash
from repro.fleet.metrics import StreamingMetrics
from repro.fleet.report import FleetReport, report_from_metrics
from repro.fleet.spec import FleetSpec
from repro.hec.simulation import HECSystem
from repro.obs.export import Telemetry

#: The streaming stages, in loop order — the label set of the
#: ``fleet_stage_seconds_total`` counters a telemetered run accumulates
#: (``repro fleet --profile`` prints them).
STAGES = ("arrivals", "context_policy", "detect", "metrics", "adapt")

#: Bucket bounds for the checkpoint save/load timing histograms (seconds).
_SECONDS_BUCKETS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)


def _default_tier_names(n_layers: int) -> Tuple[str, ...]:
    return tuple(f"layer-{layer}" for layer in range(n_layers))


#: Whether the degraded-parallelism warning already fired this process.
_pool_fallback_warned = False


def _warn_pool_fallback_once(exc: BaseException) -> None:
    """Satellite contract: a silent serial fallback hides broken parallelism
    from benchmarks and CI logs, so name the failure — once per process."""
    global _pool_fallback_warned
    if _pool_fallback_warned:
        return
    _pool_fallback_warned = True
    warnings.warn(
        f"sharded fleet worker pool failed ({type(exc).__name__}: {exc}); "
        "falling back to serial in-process shards — throughput numbers from "
        "this run do not measure parallel scaling",
        RuntimeWarning,
        stacklevel=3,
    )


class FleetEngine:
    """Stream one (subset of a) device fleet through a deployed HEC system."""

    def __init__(
        self,
        system: HECSystem,
        policy: PolicyNetwork,
        context_extractor: ContextExtractor,
        spec: FleetSpec,
        pool: WindowPool,
        master_seed: int = 0,
        name: str = "fleet",
        tier_names: Optional[Sequence[str]] = None,
        device_ids: Optional[Sequence[int]] = None,
        controller=None,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultSpec] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_cadence: int = 0,
        shard_index: int = 0,
    ) -> None:
        if policy.n_actions != system.n_layers:
            raise ConfigurationError(
                f"policy has {policy.n_actions} actions but the HEC system has "
                f"{system.n_layers} layers"
            )
        if checkpoint_cadence < 0:
            raise ConfigurationError(
                f"checkpoint_cadence must be non-negative, got {checkpoint_cadence}"
            )
        self.system = system
        self.policy = policy
        self.context_extractor = context_extractor
        self.spec = spec
        self.pool = pool
        self.master_seed = int(master_seed)
        self.name = name
        self.tier_names = tuple(tier_names) if tier_names else _default_tier_names(
            system.n_layers
        )
        if len(self.tier_names) != system.n_layers:
            raise ConfigurationError(
                f"got {len(self.tier_names)} tier names for {system.n_layers} layers"
            )
        self.device_ids = (
            tuple(int(d) for d in device_ids) if device_ids is not None else None
        )
        #: Optional :class:`~repro.adapt.controller.AdaptationController`.
        #: ``None`` keeps the streaming loop bit-identical to the
        #: pre-adaptation engine (no extra draws, no extra branches taken).
        self.controller = controller
        #: Optional :class:`~repro.obs.export.Telemetry` session.  ``None``
        #: keeps every instrumentation site down to one ``is None`` check;
        #: a session never draws RNG, so a telemetry-enabled run streams
        #: bit-identical to a disabled one (pinned by test).
        self.telemetry = telemetry
        #: The root span of the current run (tracing-enabled sessions only).
        self._run_span = None
        #: Optional deterministic fault injection (see :mod:`repro.fleet.faults`).
        self.faults = faults
        self._schedule = FaultSchedule(faults) if faults is not None else None
        #: Directory for durable checkpoints (``None`` disables checkpointing).
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else None
        #: Save a checkpoint every this many ticks (0 = never save; resume
        #: from an existing directory still works).
        self.checkpoint_cadence = int(checkpoint_cadence)
        #: Which shard of a sharded run this engine is (0 when unsharded);
        #: shard-crash fault events fire only on their matching shard.
        self.shard_index = int(shard_index)
        # One-shot kill/crash events are armed only on non-resumed runs —
        # set per run_metrics() call; True here so a bare engine is armed.
        self._armed = True

    @property
    def n_devices(self) -> int:
        """Devices this engine simulates (the subset size when sharded)."""
        if self.device_ids is not None:
            return len(self.device_ids)
        return self.spec.n_devices

    def run_metrics(self, resume: bool = False) -> StreamingMetrics:
        """The core streaming loop; returns the filled metrics aggregator.

        ``resume=True`` continues from the newest durable checkpoint in
        :attr:`checkpoint_dir` (bit-identical to an uninterrupted run) and
        disarms one-shot kill/crash fault events so recovery cannot re-die
        on the fault that ended the original run.  With no checkpoint on
        disk (or no checkpoint directory at all) a resumed run simply
        streams from tick 0, faults disarmed.
        """
        spec = self.spec
        system = self.system
        started = perf_counter()
        self._armed = not resume
        telemetry = self.telemetry
        if telemetry is not None:
            if self.controller is not None:
                self.controller.telemetry = telemetry
            if telemetry.trace_enabled:
                self._run_span = telemetry.tracer.start_span(
                    "fleet.run",
                    run=self.name,
                    shard=self.shard_index,
                    ticks=spec.ticks,
                    devices=self.n_devices,
                    resume=bool(resume),
                )
        store = (
            CheckpointStore(self.checkpoint_dir)
            if self.checkpoint_dir is not None
            else None
        )
        system.reset()
        # Streams run against a warmed system: keep-alive connections are
        # established up front, so every request sees steady-state delays and
        # the per-request delay stream is independent of shard partitioning.
        system.topology.warm_links()
        if self.faults is not None:
            system.configure_failover(
                retries=self.faults.failover_retries,
                timeout_ms=self.faults.retry_timeout_ms,
            )
        fleet = DeviceFleet(
            spec,
            self.pool,
            master_seed=self.master_seed,
            device_ids=self.device_ids,
        )
        metrics = StreamingMetrics(
            ticks=spec.ticks,
            metrics_window=spec.metrics_window,
            n_layers=system.n_layers,
            reservoir_size=spec.reservoir_size,
            seed_entropy=(self.master_seed, spec.seed),
        )
        start_tick = 0
        if resume and store is not None:
            mark = perf_counter()
            payload = store.latest()
            if payload is not None:
                start_tick = self._restore_checkpoint(payload, metrics)
                if telemetry is not None:
                    elapsed = perf_counter() - mark
                    telemetry.registry.histogram(
                        "checkpoint_load_seconds",
                        "Checkpoint restore latency.",
                        buckets=_SECONDS_BUCKETS,
                    ).observe(elapsed)
                    telemetry.event(
                        "checkpoint.load",
                        tick=start_tick,
                        shard=self.shard_index,
                        seconds=elapsed,
                    )
        self._stream(fleet, metrics, start_tick, store)
        if telemetry is not None:
            registry = telemetry.registry
            registry.counter(
                "fleet_windows_total", "Windows streamed by the fleet engines."
            ).inc(metrics.n_windows)
            registry.counter(
                "fleet_run_seconds_total", "Wall-clock seconds of fleet runs."
            ).inc(perf_counter() - started)
            if self._run_span is not None:
                self._run_span.end(windows=metrics.n_windows)
                self._run_span = None
        return metrics

    # -- fault injection & checkpointing ------------------------------------------

    def _begin_tick(self, tick: int) -> None:
        """Apply the fault schedule at the start of ``tick`` (no-op unfaulted)."""
        schedule = self._schedule
        if schedule.has_link_faults:
            schedule.apply_links(self.system, tick)
        telemetry = self.telemetry
        if telemetry is not None:
            self._record_fault_telemetry(schedule, tick)
        if not self._armed:
            return
        if schedule.crashes_shard(self.shard_index, tick):
            if telemetry is not None:
                telemetry.event(
                    "fault.shard-crash", tick=tick, shard=self.shard_index
                )
            raise WorkerCrash(
                f"injected crash of shard {self.shard_index} at tick {tick}"
            )
        if schedule.kills_process(tick):
            if telemetry is not None:
                # Best-effort: the sink's tmp file dies with the process —
                # exactly what a real crash would lose.
                telemetry.event(
                    "fault.process-kill", tick=tick, shard=self.shard_index
                )
            # The whole point: die the way a real crash does — no cleanup, no
            # exception unwinding — so resume is exercised against SIGKILL.
            os.kill(os.getpid(), signal.SIGKILL)

    def _record_fault_telemetry(self, schedule: FaultSchedule, tick: int) -> None:
        """Count active link faults; log each activation edge once."""
        telemetry = self.telemetry
        counter = telemetry.registry.counter(
            "fleet_fault_active_ticks_total",
            "Ticks spent under an active injected fault.",
            labelnames=("kind",),
        )
        for event in schedule.link_events:
            if not event.active(tick):
                continue
            counter.labels(kind=event.kind).value += 1
            if tick == event.at_tick:
                telemetry.event(
                    "fault.link",
                    fault=event.kind,
                    tick=tick,
                    link=event.link,
                    factor=event.factor,
                    until_tick=event.until_tick,
                )

    def _maybe_checkpoint(
        self, store: Optional[CheckpointStore], tick: int, metrics: StreamingMetrics
    ) -> None:
        """Durably checkpoint at the boundary after ``tick`` when it is due.

        Runs after ``controller.end_tick`` (the snapshot must include the
        boundary's swaps) and draws no RNG, so a checkpointed run streams
        bit-identical to an uncheckpointed one.  The final boundary is never
        saved — a finished run has nothing to resume.
        """
        if store is None or self.checkpoint_cadence <= 0:
            return
        boundary = tick + 1
        if boundary % self.checkpoint_cadence == 0 and boundary < self.spec.ticks:
            telemetry = self.telemetry
            if telemetry is None:
                store.save(self._checkpoint_payload(boundary, metrics), boundary)
                return
            mark = perf_counter()
            path = store.save(self._checkpoint_payload(boundary, metrics), boundary)
            elapsed = perf_counter() - mark
            size = path.stat().st_size
            registry = telemetry.registry
            registry.histogram(
                "checkpoint_save_seconds",
                "Durable checkpoint save latency.",
                buckets=_SECONDS_BUCKETS,
            ).observe(elapsed)
            registry.counter(
                "checkpoint_saves_total", "Durable checkpoints written."
            ).inc()
            registry.counter(
                "checkpoint_saved_bytes_total", "Bytes of checkpoints written."
            ).inc(size)
            telemetry.event(
                "checkpoint.save",
                tick=boundary,
                shard=self.shard_index,
                bytes=size,
                seconds=elapsed,
            )

    def _checkpoint_payload(self, tick: int, metrics: StreamingMetrics) -> dict:
        from repro.fleet.checkpoint import CHECKPOINT_FORMAT

        return {
            "format": CHECKPOINT_FORMAT,
            "tick": int(tick),
            "name": self.name,
            "shard_index": self.shard_index,
            "metrics": metrics.snapshot_state(),
            "system": self.system.snapshot_state(),
            "controller": (
                self.controller.snapshot_state()
                if self.controller is not None
                else None
            ),
        }

    def _restore_checkpoint(self, payload: dict, metrics: StreamingMetrics) -> int:
        """Load a checkpoint payload into this run's state; returns the tick."""
        if payload.get("controller") is not None and self.controller is None:
            raise ConfigurationError(
                "checkpoint was written by an adaptive run; resume with the "
                "adaptation controller enabled"
            )
        if self.controller is not None and payload.get("controller") is None:
            raise ConfigurationError(
                "checkpoint was written without adaptation; resume with the "
                "adaptation controller disabled"
            )
        metrics.restore_state(payload["metrics"])
        self.system.restore_state(payload["system"])
        if self.controller is not None:
            self.controller.restore_state(payload["controller"])
        return int(payload["tick"])

    # -- the streaming loop -------------------------------------------------------

    def _stream(
        self,
        fleet: DeviceFleet,
        metrics: StreamingMetrics,
        start_tick: int = 0,
        store: Optional[CheckpointStore] = None,
    ) -> None:
        """The struct-of-arrays loop: arrays in, arrays out, no objects."""
        system = self.system
        controller = self.controller
        telemetry = self.telemetry
        tracing = telemetry is not None and telemetry.trace_enabled
        watcher = telemetry.watcher if telemetry is not None else None
        tier_cells = self._tier_cells()
        stage_cells = self._stage_cells()
        if stage_cells is not None:
            arrivals_s, context_policy_s, detect_s, metrics_s, adapt_s = stage_cells
        faulted = self._schedule is not None
        extract = self.context_extractor.extract
        select_actions = self.policy.select_actions
        n_fleet = len(fleet)
        for tick in range(start_tick, self.spec.ticks):
            if tracing:
                tick_span = telemetry.tracer.start_span(
                    "fleet.tick", parent=self._run_span, tick=tick
                )
                stage_mark = [cell.value for cell in stage_cells]
            if faulted:
                self._begin_tick(tick)
            if stage_cells is not None:
                mark = perf_counter()
            batch = fleet.arrivals_columnar(tick)
            if stage_cells is not None:
                arrivals_s.value += perf_counter() - mark
            metrics.record_uptime(batch.online, n_fleet - batch.online)
            if batch.n:
                windows = batch.windows
                labels = batch.labels
                if stage_cells is not None:
                    mark = perf_counter()
                contexts = extract(windows)
                actions = select_actions(contexts, greedy=True)
                if stage_cells is not None:
                    context_policy_s.value += perf_counter() - mark
                for action in np.unique(actions):
                    chosen = np.flatnonzero(actions == action)
                    if chosen.size == actions.shape[0]:
                        # One tier took the whole tick — skip the re-index
                        # copies (the arrays are already exactly the batch).
                        tier_windows, tier_labels = windows, labels
                    else:
                        tier_windows = windows[chosen]
                        tier_labels = labels[chosen]
                    if stage_cells is not None:
                        mark = perf_counter()
                    detected = system.detect_batch_columnar(int(action), tier_windows)
                    # Failover may have served the batch at a lower tier than
                    # the policy chose; account at the tier that did the work.
                    served = int(detected.layer)
                    if tier_cells is not None:
                        tier_cells[served].value += int(detected.n)
                    if stage_cells is not None:
                        now = perf_counter()
                        detect_s.value += now - mark
                        mark = now
                    metrics.observe(
                        tick,
                        served,
                        predictions=detected.predictions,
                        labels=tier_labels,
                        delays_ms=detected.delays_ms,
                        redirected=detected.n if served != int(action) else 0,
                    )
                    if stage_cells is not None:
                        metrics_s.value += perf_counter() - mark
                    if controller is not None:
                        if stage_cells is not None:
                            mark = perf_counter()
                        controller.observe_batch(
                            tick,
                            served,
                            windows=tier_windows,
                            predictions=detected.predictions,
                            labels=tier_labels,
                            scores=detected.anomaly_scores,
                        )
                        if stage_cells is not None:
                            adapt_s.value += perf_counter() - mark
            if controller is not None:
                # The tick boundary: drift decisions, gated retrains and
                # atomic detector swaps happen between ticks, never inside
                # one, so no batch sees a half-updated model.
                if stage_cells is not None:
                    mark = perf_counter()
                if tracing:
                    # Activating the tick span parents the controller's
                    # adapt.retrain spans under this tick in the trace.
                    with telemetry.tracer.activate(tick_span):
                        controller.end_tick(tick)
                else:
                    controller.end_tick(tick)
                if stage_cells is not None:
                    adapt_s.value += perf_counter() - mark
            self._maybe_checkpoint(store, tick, metrics)
            if tracing:
                # Close the tick span with the stage-seconds deltas.
                tick_span.end(
                    windows=int(batch.n),
                    online=int(batch.online),
                    **{
                        f"{stage}_ms": (cell.value - before) * 1000.0
                        for stage, before, cell in zip(STAGES, stage_mark, stage_cells)
                    },
                )
            if watcher is not None:
                # After the span closes: the watcher reads the registry and
                # may emit its own events, which must not nest under the tick.
                watcher.observe(tick + 1)

    def _tier_cells(self):
        """Pre-resolved per-tier window counters (``None`` untelemetered)."""
        if self.telemetry is None:
            return None
        family = self.telemetry.registry.counter(
            "fleet_tier_windows_total",
            "Windows served per tier (post-failover accounting).",
            labelnames=("tier",),
        )
        return [family.labels(tier=tier) for tier in self.tier_names]

    def _stage_cells(self):
        """Pre-resolved per-stage seconds counters, in :data:`STAGES` order
        (``None`` untelemetered, so the plain loop times nothing)."""
        if self.telemetry is None:
            return None
        family = self.telemetry.registry.counter(
            "fleet_stage_seconds_total",
            "Wall-clock seconds per streaming stage.",
            labelnames=("stage",),
        )
        return [family.labels(stage=stage) for stage in STAGES]

    def run(self, resume: bool = False) -> FleetReport:
        """Stream the fleet and assemble the :class:`FleetReport`."""
        metrics = self.run_metrics(resume=resume)
        timeline = self.controller.timeline() if self.controller is not None else None
        return report_from_metrics(
            self.name,
            metrics,
            self.tier_names,
            n_devices=self.n_devices,
            adaptation=timeline,
        )

    def resume(self, path: Optional[str] = None) -> FleetReport:
        """Continue a killed run from its newest durable checkpoint.

        ``path`` overrides the engine's configured :attr:`checkpoint_dir`.
        The resumed run's report is bit-identical to what the uninterrupted
        run would have produced.
        """
        if path is not None:
            self.checkpoint_dir = str(path)
        if self.checkpoint_dir is None:
            raise ConfigurationError(
                "resume needs a checkpoint directory (constructor "
                "checkpoint_dir or resume(path=...))"
            )
        return self.run(resume=True)


class ShardedFleetEngine:
    """Partition the fleet across worker processes and merge deterministically.

    Multi-shard runs require jitter-free links (the paper's configuration):
    per-transfer jitter draws would come from each shard's own link replicas
    and so depend on the partitioning, which would break the merge contract.

    ``parallel`` accepts ``True`` (always fork the worker pool), ``False``
    (always run shards serially in-process) and ``"auto"`` (the default:
    fork only when the host actually has more than one CPU to run workers
    on — a single-core host pays fork/IPC overhead for pure time-slicing,
    which is exactly what made multi-shard runs *slower* than one shard).
    Nothing else decides it — in particular a telemetry session does not:
    each shard — pooled or serial — runs its own child session
    (``shard-NN/`` sinks mirroring the checkpoint layout, shard-scoped trace
    ids) and the parent absorbs the children in shard order through the
    deterministic registry merge algebra, so the merged metrics equal what a
    serial unsharded run records (stage and run seconds add up across
    shards).
    """

    def __init__(
        self,
        system: HECSystem,
        policy: PolicyNetwork,
        context_extractor: ContextExtractor,
        spec: FleetSpec,
        pool: WindowPool,
        master_seed: int = 0,
        name: str = "fleet",
        tier_names: Optional[Sequence[str]] = None,
        n_shards: Optional[int] = None,
        parallel: Union[bool, str] = "auto",
        controller=None,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultSpec] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_cadence: int = 0,
    ) -> None:
        self.n_shards = int(n_shards) if n_shards is not None else spec.n_shards
        if self.n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {self.n_shards}")
        if self.n_shards > spec.n_devices:
            raise ConfigurationError(
                f"n_shards ({self.n_shards}) cannot exceed n_devices ({spec.n_devices})"
            )
        if parallel not in (True, False, "auto"):
            raise ConfigurationError(
                f"parallel must be True, False or 'auto', got {parallel!r}"
            )
        self.system = system
        self.policy = policy
        self.context_extractor = context_extractor
        self.spec = spec
        self.pool = pool
        self.master_seed = int(master_seed)
        self.name = name
        self.tier_names = tuple(tier_names) if tier_names else _default_tier_names(
            system.n_layers
        )
        self.parallel = parallel
        self.controller = controller
        self.telemetry = telemetry
        self.faults = faults
        #: Base checkpoint directory; shard ``i`` checkpoints under
        #: ``<dir>/shard-<i>`` so per-shard recovery never mixes stores.
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else None
        self.checkpoint_cadence = int(checkpoint_cadence)
        if self.checkpoint_cadence < 0:
            raise ConfigurationError(
                f"checkpoint_cadence must be non-negative, got {checkpoint_cadence}"
            )
        if self.n_shards > 1 and any(
            link.jitter_ms > 0.0 for link in system.topology.links
        ):
            # Jittery links draw per-transfer RNG from each shard's own link
            # replicas, so the delay stream would depend on the partitioning —
            # the determinism contract only holds on jitter-free links.
            raise ConfigurationError(
                "ShardedFleetEngine requires jitter-free links for n_shards > 1 "
                "(per-transfer jitter draws would depend on the device "
                "partitioning); set link jitter_ms=0 or use n_shards=1"
            )

    def _resolve_parallel(self) -> bool:
        if self.parallel is False:
            return False
        if self.parallel == "auto":
            return sharding.available_cpus() > 1
        return True

    def _shard_payloads(self) -> List[dict]:
        """The :class:`FleetEngine` kwargs of every shard, in shard order."""
        shared = {
            "system": self.system,
            "policy": self.policy,
            "context_extractor": self.context_extractor,
            "spec": self.spec,
            "pool": self.pool,
            "master_seed": self.master_seed,
            "name": self.name,
            "tier_names": self.tier_names,
            "faults": self.faults,
            "checkpoint_dir": self.checkpoint_dir,
            "checkpoint_cadence": self.checkpoint_cadence,
            # The frozen recipe each shard builds its child telemetry session
            # from (None on untelemetered runs).
            "obs": (
                self.telemetry.shard_config() if self.telemetry is not None else None
            ),
        }
        partitions = np.array_split(np.arange(self.spec.n_devices), self.n_shards)
        payloads = []
        for index, partition in enumerate(partitions):
            payload = {
                **shared,
                "device_ids": partition.tolist(),
                "shard_index": index,
            }
            if self.n_shards == 1:
                # A 1-shard "sharded" run is just the serial run: the parent
                # session records directly (tick spans, unscoped ids) instead
                # of routing through a pointless shard-00 child.
                payload["obs"] = None
                payload["telemetry"] = self.telemetry
            if self.checkpoint_dir is not None:
                payload["checkpoint_dir"] = shard_checkpoint_dir(
                    self.checkpoint_dir, index
                )
            payloads.append(payload)
        return payloads

    def _recover_shard(self, payload: dict) -> "sharding.ShardResult":
        """Re-run a crashed shard in-process from its last durable checkpoint.

        At-most-once by construction: the dead worker returned nothing, so its
        partial stream was never merged, and the recovery run (resumed from
        the shard's own checkpoint store, crash events disarmed) produces the
        shard's complete metrics exactly once.  On telemetered runs the
        recovery builds a fresh child session whose sink overwrites the
        crashed shard's half-written ``trace.jsonl.tmp`` — the merged parent
        only ever sees the complete recovered shard.
        """
        warnings.warn(
            f"shard {payload.get('shard_index', 0)} crashed; recovering it "
            "in-process from its last checkpoint",
            RuntimeWarning,
            stacklevel=3,
        )
        return sharding.run_shard(payload, resume=True)

    def _absorb_shards(self, results: list) -> List[StreamingMetrics]:
        """Fold child telemetry into the parent session, in shard order.

        Child registries merge through the deterministic algebra (counters
        add, gauges max, histogram buckets add elementwise); in-memory
        children's spans/events re-emit through the parent sink with their
        shard-scoped ids.  Each merge is logged as a ``shard.merge`` event,
        and the parent's watcher (``--watch``) observes shard completions.
        """
        telemetry = self.telemetry
        metrics = []
        for index, result in enumerate(results):
            metrics.append(result.metrics)
            if telemetry is None or result.obs is None:
                continue
            telemetry.absorb_shard(result.obs)
            telemetry.event(
                "shard.merge", shard=index, scope=result.obs.get("scope")
            )
            if telemetry.watcher is not None:
                telemetry.watcher.observe(float(index + 1))
        return metrics

    def _run_shards(self, resume: bool = False) -> List[StreamingMetrics]:
        payloads = self._shard_payloads()
        results = None
        # Resumed runs stay in-process: each shard restores the system from
        # its own checkpoint store, one shard at a time.
        if self.n_shards > 1 and not resume and self._resolve_parallel():
            try:
                results = sharding.run_pooled(payloads)
            except ReproError:
                # Application errors raised inside a worker (configuration/shape
                # problems) are not pool failures: re-running them serially would
                # double the wall-clock only to raise the same error, behind a
                # warning blaming parallelism.  ReproErrors also subclass
                # ValueError/RuntimeError, so this re-raise must precede the catch.
                raise
            except (
                OSError, ValueError, RuntimeError, multiprocessing.ProcessError
            ) as exc:
                # RuntimeError: BrokenProcessPool, a worker that died without
                # raising (OOM kill) — its shards have no result to wait for.
                _warn_pool_fallback_once(exc)
        if results is None:
            # In-process: FleetEngine.run_metrics resets the shared system
            # before each shard, so sequential shards stay isolated.
            results = []
            for payload in payloads:
                try:
                    results.append(sharding.run_shard(payload, resume=resume))
                except WorkerCrash as crash:
                    results.append(crash)
        # Injected shard crashes sit in their shard's slot, pooled or serial;
        # recover each from its shard checkpoint store.
        return self._absorb_shards(
            [
                self._recover_shard(payload)
                if isinstance(result, WorkerCrash)
                else result
                for payload, result in zip(payloads, results)
            ]
        )

    def run(self, resume: bool = False) -> FleetReport:
        """Run every shard, merge in shard order and assemble the report."""
        if self.controller is not None:
            # Adaptation is tick-synchronous global state (monitors, a shared
            # registry, live detector swaps), so an adaptive run streams the
            # whole fleet through one in-process engine.  Device streams are
            # partition-independent, so every count matches what a sharded
            # merge would have produced; only the delay-reservoir subsampling
            # (which sharded merges re-draw) uses the unsharded path.
            if self.n_shards > 1:
                warnings.warn(
                    f"adaptive streaming is tick-synchronous; running the "
                    f"{self.n_shards}-shard fleet through one in-process "
                    "engine (counts are partition-independent and identical; "
                    "delay percentiles use the unsharded reservoir)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return FleetEngine(
                system=self.system,
                policy=self.policy,
                context_extractor=self.context_extractor,
                spec=self.spec,
                pool=self.pool,
                master_seed=self.master_seed,
                name=self.name,
                tier_names=self.tier_names,
                controller=self.controller,
                telemetry=self.telemetry,
                faults=self.faults,
                checkpoint_dir=(
                    shard_checkpoint_dir(self.checkpoint_dir, 0)
                    if self.checkpoint_dir is not None
                    else None
                ),
                checkpoint_cadence=self.checkpoint_cadence,
            ).run(resume=resume)
        parts = self._run_shards(resume=resume)
        metrics = StreamingMetrics.merge(
            parts, seed_entropy=(self.master_seed, self.spec.seed)
        )
        return report_from_metrics(
            self.name, metrics, self.tier_names, n_devices=self.spec.n_devices
        )

    def resume(self, path: Optional[str] = None) -> FleetReport:
        """Continue a killed sharded run from its per-shard checkpoints."""
        if path is not None:
            self.checkpoint_dir = str(path)
        if self.checkpoint_dir is None:
            raise ConfigurationError(
                "resume needs a checkpoint directory (constructor "
                "checkpoint_dir or resume(path=...))"
            )
        return self.run(resume=True)
