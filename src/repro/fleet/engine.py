"""The streaming engine: event-clocked fleet traffic through the HEC system.

:class:`FleetEngine` drains per-tick arrival queues from a
:class:`~repro.fleet.devices.DeviceFleet` through the trained bandit policy
and the HEC system — one context extraction and one policy forward per tick,
one batched detector call per selected layer — feeding a
:class:`~repro.fleet.metrics.StreamingMetrics` aggregator so the full trace
is never materialised.

There is one streaming loop, struct-of-arrays end to end:
:meth:`~repro.fleet.devices.DeviceFleet.arrivals_columnar` arrays in,
:meth:`~repro.hec.simulation.HECSystem.detect_batch` arrays out,
tick-batched metric/controller feeds, zero per-window objects.  Its reports
are pinned by goldens recorded from the per-window loop it replaced (see
DESIGN.md, "Goldens").

What a run observes is decided once, at its start: the loop reports each
stage boundary, tick and checkpoint to one per-run seam — :class:`_Observed`
(the resolved ``fleet_*``/``checkpoint_*`` cells, spans and watcher of a
telemetry session; this module is the one place that knows those names) or
:class:`_Unobserved`, whose hooks are no-op bound methods, so the plain loop
times nothing.  Neither draws RNG: a telemetered run streams bit-identical.

A spec with ``n_shards > 1`` runs as one-shard engines over a partition of
the device ids (:func:`repro.fleet.sharding.run_sharded`).  A device's stream
is a function of its id, not of its shard, and every metric is an order-free
function of the windows (exact integer delay sums, a delay sample keyed by
window identity), so a K-shard report equals the one-shard one field for
field (pinned by the equivalence tests).

An optional adaptation ``controller`` (:mod:`repro.adapt.controller`) is fed
every detected batch with its window keys and ends each tick (drift decisions, retrains, atomic
detector swaps); with none the loop takes no extra branch and draws nothing,
so a non-adaptive run is bit-identical to the pre-adaptation engine.

Fault tolerance rides on the same tick boundaries.  With a ``checkpoint_dir``
the engine durably snapshots metrics, system and controller every
``checkpoint_cadence`` ticks (:class:`~repro.fleet.checkpoint.CheckpointStore`)
and ``resume`` continues at the checkpointed tick, bit-identical to an
uninterrupted run — arrivals are a pure function of the tick, so nothing is
replayed.  A :class:`~repro.fleet.faults.FaultSpec` injects link
degradation/outage (failover to the best reachable tier), shard crashes
(recovered from the shard's own checkpoints) and process kills; one-shot
kill/crash events are disarmed on resumed runs so recovery cannot re-die.
"""

from __future__ import annotations

import os
import signal
import warnings
from contextlib import nullcontext
from time import perf_counter
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.bandit.context import ContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.exceptions import ConfigurationError
from repro.fleet import sharding
from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.devices import DeviceFleet, WindowPool
from repro.fleet.faults import FaultSchedule, FaultSpec, WorkerCrash
from repro.fleet.metrics import StreamingMetrics, mix64
from repro.fleet.report import FleetReport, report_from_metrics
from repro.fleet.spec import FleetSpec
from repro.hec.simulation import HECSystem
from repro.obs.export import Telemetry

#: The streaming stages, in loop order — the label set of the
#: ``fleet_stage_seconds_total`` counters a telemetered run accumulates
#: (``repro fleet --profile`` prints them).
STAGES = ("arrivals", "context_policy", "detect", "metrics", "adapt")

#: Bucket bounds for the checkpoint save/load timing histograms (seconds).
_SECONDS_BUCKETS = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

#: The tick scope of a run that traces nothing (``nullcontext`` is reusable).
_NO_SCOPE = nullcontext()


def _tick_salts(master_seed: int, fleet_seed: int, ticks: int) -> np.ndarray:
    """One sample-key salt per tick, folding in the run's two seeds."""
    run = mix64(np.uint64(master_seed % 2**64) ^ mix64(np.uint64(fleet_seed % 2**64)))
    return mix64(run ^ np.arange(ticks, dtype=np.uint64))


def _window_keys(device_ids: np.ndarray, salt: np.uint64) -> np.ndarray:
    """Each window's sample key: its device id and its rank among the
    device's arrivals this tick, under the tick's ``salt``.  Arrivals are
    device-contiguous, so the rank (unlike the row) is the same in every
    shard that holds the device.  A tick's keys are distinct while ids stay
    below 2**43 and ranks below 2**20; the salts set the ticks apart."""
    rank = np.arange(device_ids.size) - np.searchsorted(device_ids, device_ids)
    return ((device_ids << 20) | rank).view(np.uint64) ^ salt


# -- the per-run observation seam ---------------------------------------------------


class _Unobserved:
    """The seam of an untelemetered run: every hook is a no-op bound method.

    No ``perf_counter`` call, no registry lookup — the plain loop times
    nothing (pinned by test).
    """

    def _ignore(self, *args, **fields) -> None:
        return None

    clock = start_tick = lap = count_tier = end_tick = _ignore
    faults = event = checkpoint_saved = checkpoint_loaded = end_run = _ignore

    def tick_scope(self):
        return _NO_SCOPE


_UNOBSERVED = _Unobserved()


class _Observed:
    """The seam of a telemetered run, resolved once at its start.

    Stage seconds accumulate by laps: :meth:`start_tick` starts the clock and
    each ``lap(stage)`` charges the time since the previous mark to that
    stage's ``fleet_stage_seconds_total`` cell.  A traced tick's span carries
    the same deltas as ``<stage>_ms`` — one measurement, two views.
    """

    def __init__(self, engine: "FleetEngine", resume: bool) -> None:
        self.started = perf_counter()
        telemetry = self.telemetry = engine.telemetry
        self.shard = engine.shard_index
        self.watcher = telemetry.watcher
        if engine.controller is not None:
            engine.controller.telemetry = telemetry
        registry = telemetry.registry
        self.tracer = telemetry.tracer if telemetry.trace_enabled else None
        self.run_span = None if self.tracer is None else self.tracer.start_span(
            "fleet.run",
            run=engine.name,
            shard=engine.shard_index,
            ticks=engine.spec.ticks,
            devices=engine.n_devices,
            resume=bool(resume),
        )
        stages = registry.counter(
            "fleet_stage_seconds_total",
            "Wall-clock seconds per streaming stage.",
            labelnames=("stage",),
        )
        self.stages = {stage: stages.labels(stage=stage) for stage in STAGES}
        tiers = registry.counter(
            "fleet_tier_windows_total",
            "Windows served per tier (post-failover accounting).",
            labelnames=("tier",),
        )
        self.tiers = [tiers.labels(tier=tier) for tier in engine.tier_names]
        if engine.faults is not None:
            self.fault_ticks = registry.counter(
                "fleet_fault_active_ticks_total",
                "Ticks spent under an active injected fault.",
                labelnames=("kind",),
            )

    def clock(self) -> float:
        return perf_counter()

    def start_tick(self, tick: int) -> None:
        if self.tracer is not None:
            self.tick_span = self.tracer.start_span(
                "fleet.tick", parent=self.run_span, tick=tick
            )
            self.tick_start = {s: cell.value for s, cell in self.stages.items()}
        self.mark = perf_counter()

    def lap(self, stage: str) -> None:
        now = perf_counter()
        self.stages[stage].value += now - self.mark
        self.mark = now

    def count_tier(self, tier: int, n: int) -> None:
        self.tiers[tier].value += int(n)

    def tick_scope(self):
        """Activate the tick span, so the controller's adapt.retrain spans
        parent under this tick in the trace."""
        if self.tracer is None:
            return _NO_SCOPE
        return self.tracer.activate(self.tick_span)

    def end_tick(self, tick: int, batch) -> None:
        if self.tracer is not None:
            self.tick_span.end(
                windows=int(batch.n),
                online=int(batch.online),
                **{
                    f"{stage}_ms": (cell.value - self.tick_start[stage]) * 1000.0
                    for stage, cell in self.stages.items()
                },
            )
        if self.watcher is not None:
            # After the span closes: the watcher reads the registry and may
            # emit its own events, which must not nest under the tick.
            self.watcher.observe(tick + 1)

    def faults(self, schedule: FaultSchedule, tick: int) -> None:
        """Count active link faults; log each activation edge once."""
        for event in schedule.link_events:
            if not event.active(tick):
                continue
            self.fault_ticks.labels(kind=event.kind).value += 1
            if tick == event.at_tick:
                self.telemetry.event(
                    "fault.link",
                    fault=event.kind,
                    tick=tick,
                    link=event.link,
                    factor=event.factor,
                    until_tick=event.until_tick,
                )

    def event(self, name: str, **fields) -> None:
        self.telemetry.event(name, **fields)

    def checkpoint_saved(self, tick: int, path, since: float) -> None:
        elapsed = perf_counter() - since
        size = path.stat().st_size
        registry = self.telemetry.registry
        registry.histogram(
            "checkpoint_save_seconds",
            "Durable checkpoint save latency.",
            buckets=_SECONDS_BUCKETS,
        ).observe(elapsed)
        registry.counter("checkpoint_saves_total", "Durable checkpoints written.").inc()
        registry.counter(
            "checkpoint_saved_bytes_total", "Bytes of checkpoints written."
        ).inc(size)
        self.telemetry.event(
            "checkpoint.save", tick=tick, shard=self.shard, bytes=size, seconds=elapsed
        )

    def checkpoint_loaded(self, tick: int, since: float) -> None:
        elapsed = perf_counter() - since
        self.telemetry.registry.histogram(
            "checkpoint_load_seconds",
            "Checkpoint restore latency.",
            buckets=_SECONDS_BUCKETS,
        ).observe(elapsed)
        self.telemetry.event(
            "checkpoint.load", tick=tick, shard=self.shard, seconds=elapsed
        )

    def end_run(self, metrics: StreamingMetrics) -> None:
        registry = self.telemetry.registry
        registry.counter(
            "fleet_windows_total", "Windows streamed by the fleet engines."
        ).inc(metrics.n_windows)
        registry.counter(
            "fleet_run_seconds_total", "Wall-clock seconds of fleet runs."
        ).inc(perf_counter() - self.started)
        if self.run_span is not None:
            self.run_span.end(windows=metrics.n_windows)


# -- the engine -------------------------------------------------------------------


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
        if spec.n_shards > 1 and any(link.jitter_ms > 0.0 for link in system.topology.links):
            # Each shard draws jitter from its own link replicas, so the delay
            # stream would depend on the partitioning.
            raise ConfigurationError(
                f"a {spec.n_shards}-shard fleet requires jitter-free links; "
                "set link jitter_ms=0 or use n_shards=1"
            )
        self.system = system
        self.policy = policy
        self.context_extractor = context_extractor
        self.spec = spec
        self.pool = pool
        self.master_seed = int(master_seed)
        self.name = name
        self.tier_names = tuple(
            tier_names or (f"layer-{layer}" for layer in range(system.n_layers))
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
        #: gives each run the no-op observation seam; a session never draws
        #: RNG, so a telemetry-enabled run streams bit-identical to a
        #: disabled one (pinned by test).
        self.telemetry = telemetry
        #: Optional deterministic fault injection (see :mod:`repro.fleet.faults`).
        self.faults = faults
        self._schedule = FaultSchedule(faults) if faults is not None else None
        #: Directory for durable checkpoints (``None`` disables checkpointing).
        self.checkpoint_dir = str(checkpoint_dir) if checkpoint_dir else None
        #: Save a checkpoint every this many ticks (0 = never save; resume
        #: from an existing directory still works).
        self.checkpoint_cadence = int(checkpoint_cadence)
        #: Which shard of a sharded run this engine is (0 for a whole fleet);
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

        A spec with ``n_shards > 1`` runs as shard engines
        (:func:`~repro.fleet.sharding.run_sharded`), unless the engine adapts:
        adaptation is tick-synchronous global state (monitors, a shared
        registry, live detector swaps), so an adaptive run streams the whole
        fleet through this engine, with a warning.

        ``resume=True`` continues from the newest durable checkpoint in
        :attr:`checkpoint_dir` (bit-identical to an uninterrupted run) and
        disarms one-shot kill/crash fault events so recovery cannot re-die
        on the fault that ended the original run.  With no checkpoint on
        disk (or no checkpoint directory at all) a resumed run simply
        streams from tick 0, faults disarmed.  A run that does not resume
        first discards the checkpoints already in :attr:`checkpoint_dir`, so
        a later resume can only continue this run, never an earlier one.
        """
        spec = self.spec
        if spec.n_shards > 1:
            if self.controller is None:
                return sharding.run_sharded(self, resume)
            warnings.warn(
                f"adaptive streaming is tick-synchronous; running the "
                f"{spec.n_shards}-shard fleet through one in-process "
                "engine (every metric is partition-independent, so the "
                "report is identical)",
                RuntimeWarning,
                stacklevel=3,
            )
        obs = _Observed(self, resume) if self.telemetry is not None else _UNOBSERVED
        system = self.system
        self._armed = not resume
        store = CheckpointStore(self.checkpoint_dir) if self.checkpoint_dir else None
        if store is not None and not resume:
            store.discard()
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
            spec, self.pool, master_seed=self.master_seed, device_ids=self.device_ids
        )
        metrics = StreamingMetrics(
            ticks=spec.ticks,
            metrics_window=spec.metrics_window,
            n_layers=system.n_layers,
            reservoir_size=spec.reservoir_size,
        )
        start_tick = 0
        if resume and store is not None:
            mark = obs.clock()
            payload = store.latest()
            if payload is not None:
                start_tick, metrics = self._restore_checkpoint(payload, metrics.shape)
                obs.checkpoint_loaded(start_tick, mark)
        self._stream(fleet, metrics, obs, start_tick, store)
        obs.end_run(metrics)
        return metrics

    # -- fault injection & checkpointing ------------------------------------------

    def _begin_tick(self, tick: int, obs) -> None:
        """Apply the fault schedule at the start of ``tick`` (faulted runs only)."""
        schedule = self._schedule
        if schedule.has_link_faults:
            schedule.apply_links(self.system, tick)
        obs.faults(schedule, tick)
        if not self._armed:
            return
        if schedule.crashes_shard(self.shard_index, tick):
            obs.event("fault.shard-crash", tick=tick, shard=self.shard_index)
            raise WorkerCrash(
                f"injected crash of shard {self.shard_index} at tick {tick}"
            )
        if schedule.kills_process(tick):
            # Best-effort: the sink's tmp file dies with the process —
            # exactly what a real crash would lose.
            obs.event("fault.process-kill", tick=tick, shard=self.shard_index)
            # The whole point: die the way a real crash does — no cleanup, no
            # exception unwinding — so resume is exercised against SIGKILL.
            os.kill(os.getpid(), signal.SIGKILL)

    def _maybe_checkpoint(self, store, tick: int, metrics: StreamingMetrics, obs) -> None:
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
            mark = obs.clock()
            path = store.save(self._checkpoint_payload(boundary, metrics), boundary)
            obs.checkpoint_saved(boundary, path, mark)

    def _checkpoint_payload(self, tick: int, metrics: StreamingMetrics) -> dict:
        return {
            "tick": int(tick),
            "name": self.name,
            "shard_index": self.shard_index,
            "metrics": metrics.to_payload(),
            "system": self.system.snapshot_state(),
            "controller": (
                self.controller.snapshot_state()
                if self.controller is not None
                else None
            ),
        }

    def _restore_checkpoint(
        self, payload: dict, shape: Tuple[int, int, int, int]
    ) -> Tuple[int, StreamingMetrics]:
        """Load a checkpoint payload into this run's state; returns the tick
        and the restored metrics, which must have this run's ``shape``."""
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
        written_by = (payload.get("name"), payload.get("shard_index"))
        if written_by != (self.name, self.shard_index):
            raise ConfigurationError(
                f"checkpoint was written by run {written_by[0]!r} shard "
                f"{written_by[1]!r}; this engine is run {self.name!r} shard "
                f"{self.shard_index} — resume each shard from its own store"
            )
        metrics = StreamingMetrics.from_payload(payload["metrics"], shape=shape)
        self.system.restore_state(payload["system"])
        if self.controller is not None:
            self.controller.restore_state(payload["controller"])
        return int(payload["tick"]), metrics

    # -- the streaming loop -------------------------------------------------------

    def _stream(
        self, fleet: DeviceFleet, metrics: StreamingMetrics, obs, start_tick: int, store
    ) -> None:
        """The struct-of-arrays loop: arrays in, arrays out, no objects.

        Per tick: arrivals → context + policy → detect at each chosen tier →
        fold into the metrics (and the controller), then the tick boundary.
        ``obs.lap(stage)`` closes each stage on the run's observation seam.
        """
        system = self.system
        controller = self.controller
        faulted = self._schedule is not None
        extract = self.context_extractor.extract
        select_actions = self.policy.select_actions
        n_fleet = len(fleet)
        salts = _tick_salts(self.master_seed, self.spec.seed, self.spec.ticks)
        for tick in range(start_tick, self.spec.ticks):
            if faulted:
                self._begin_tick(tick, obs)
            obs.start_tick(tick)
            batch = fleet.arrivals_columnar(tick)
            keys = _window_keys(batch.device_ids, salts[tick])
            obs.lap("arrivals")
            metrics.record_uptime(batch.online, n_fleet - batch.online)
            if batch.n:
                windows = batch.windows
                labels = batch.labels
                actions = select_actions(extract(windows))
                obs.lap("context_policy")
                for action in np.unique(actions):
                    chosen = np.flatnonzero(actions == action)
                    if chosen.size == actions.shape[0]:
                        # One tier took the whole tick — skip the re-index
                        # copies (the arrays are already exactly the batch).
                        tier_windows, tier_labels, tier_keys = windows, labels, keys
                    else:
                        tier_windows = windows[chosen]
                        tier_labels = labels[chosen]
                        tier_keys = keys[chosen]
                    detected = system.detect_batch(int(action), tier_windows)
                    # Failover may have served the batch at a lower tier than
                    # the policy chose; account at the tier that did the work.
                    served = int(detected.layer)
                    obs.count_tier(served, detected.n)
                    obs.lap("detect")
                    metrics.observe(
                        tick,
                        served,
                        predictions=detected.predictions,
                        labels=tier_labels,
                        delays_ms=detected.delays_ms,
                        keys=tier_keys,
                        redirected=detected.n if served != int(action) else 0,
                    )
                    obs.lap("metrics")
                    if controller is not None:
                        controller.observe_batch(
                            tick,
                            served,
                            windows=tier_windows,
                            keys=tier_keys,
                            predictions=detected.predictions,
                            labels=tier_labels,
                            scores=detected.anomaly_scores,
                        )
                        obs.lap("adapt")
            if controller is not None:
                # The tick boundary: drift decisions, gated retrains and
                # atomic detector swaps happen between ticks, never inside
                # one, so no batch sees a half-updated model.
                with obs.tick_scope():
                    controller.end_tick(tick)
                obs.lap("adapt")
            self._maybe_checkpoint(store, tick, metrics, obs)
            obs.end_tick(tick, batch)

    def run(self, resume: bool = False) -> FleetReport:
        """Stream the fleet and assemble the :class:`FleetReport`."""
        metrics = self.run_metrics(resume=resume)
        timeline = self.controller.timeline() if self.controller is not None else None
        return report_from_metrics(
            self.name, metrics, self.tier_names, n_devices=self.n_devices, adaptation=timeline
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
