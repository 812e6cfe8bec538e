"""The adaptation controller: monitor -> retrain -> gate -> swap, per tick.

:class:`AdaptationController` is the object the streaming engine talks to.
Per tick it ingests every detected batch (windows, predictions, labels and
anomaly scores, per tier), feeds the drift monitors and the retraining
reservoirs, and at the tick boundary runs the lifecycle state machine:

1. a monitor fires -> the tier is marked *pending*;
2. a pending tier outside its cooldown, with enough reservoir fill, gets a
   drift-triggered fine-tune on the recent clean-window sample;
3. the candidate must beat the incumbent's F1 on the labelled holdout slice
   (the shadow gate) — rejected candidates are recorded and discarded;
4. an accepted candidate is quantised like its tier's original deployment,
   committed to the registry, promoted and hot-swapped into the live system;
   the tier's monitors reset so the new model gets a fresh baseline.

Everything the controller does is recorded in an
:class:`~repro.adapt.events.AdaptationTimeline`; wall-clock retrain/swap
latencies go only to the telemetry session's ``adapt_retrain_seconds`` /
``adapt_swap_seconds`` histograms, so the timeline (and the fleet report
carrying it) stays timing-free and deterministic.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.adapt.deployer import HotSwapDeployer
from repro.adapt.events import AdaptationTimeline, DriftEvent, RetrainEvent
from repro.adapt.monitors import ScoreMonitor, build_monitor
from repro.adapt.registry import ModelRegistry
from repro.adapt.retrainer import OnlineRetrainer, WindowReservoir
from repro.adapt.spec import AdaptSpec
from repro.hec.simulation import HECSystem

#: SeedSequence entropy tags separating the train/holdout reservoir streams.
_TRAIN_TAG = 0xAD01
_HOLDOUT_TAG = 0xAD02

#: Bucket bounds for the retrain/swap duration histograms (seconds).
_SECONDS_BUCKETS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)


class AdaptationController:
    """Drive the model lifecycle against a live HEC system."""

    def __init__(
        self,
        spec: AdaptSpec,
        system: HECSystem,
        tier_names: Sequence[str],
        metrics_window: int,
        master_seed: int = 0,
        registry_root: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.system = system
        self.tier_names = tuple(tier_names)
        self.metrics_window = int(metrics_window)
        self.master_seed = int(master_seed)
        root = registry_root or spec.registry_dir
        self._tmpdir = None
        if root is None:
            # Genuinely run-scoped: the directory (and its checkpoint
            # archives) is removed when the controller is garbage collected
            # or the interpreter exits, so anonymous runs do not leak weights
            # into the system temp dir.
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-model-registry-")
            root = self._tmpdir.name
        self.registry = ModelRegistry(root)
        self.deployer = HotSwapDeployer(
            system, self.registry, quantize_swapped=spec.quantize_swapped
        )
        self.deployer.register_incumbents(self.tier_names)
        self.retrainer = OnlineRetrainer(
            epochs=spec.retrain_epochs,
            batch_size=spec.retrain_batch_size,
            learning_rate=spec.retrain_learning_rate,
            min_improvement=spec.min_improvement,
        )

        n_layers = len(self.tier_names)
        entropy = (self.master_seed, spec.seed)
        self.train_reservoirs = [
            WindowReservoir(spec.reservoir_size, (*entropy, _TRAIN_TAG, layer))
            for layer in range(n_layers)
        ]
        self.holdout_reservoirs = [
            WindowReservoir(spec.holdout_size, (*entropy, _HOLDOUT_TAG, layer))
            for layer in range(n_layers)
        ]
        # Per-tier score/F1 monitors ("f1-floor" consumes windowed confusion
        # blocks; the others consume the per-tick mean score stream).
        self.score_monitors: List[List[ScoreMonitor]] = []
        self.f1_monitors: List[List[ScoreMonitor]] = []
        for layer, tier in enumerate(self.tier_names):
            per_tick: List[ScoreMonitor] = []
            per_window: List[ScoreMonitor] = []
            for kind in spec.monitors:
                monitor = self._build_monitor(kind, layer, tier)
                (per_window if kind == "f1-floor" else per_tick).append(monitor)
            self.score_monitors.append(per_tick)
            self.f1_monitors.append(per_window)

        #: Per-tier [tp, fp, tn, fn] counts of the metrics window in progress.
        self._window_confusion = np.zeros((n_layers, 4), dtype=np.int64)
        #: Tick range (start, end) covered by each tier's train reservoir.
        self._train_ranges: List[Optional[List[int]]] = [None] * n_layers
        self._pending: set = set()
        self._cooldown_until = [0] * n_layers

        self.drifts: List[DriftEvent] = []
        self.retrains: List[RetrainEvent] = []
        self.swaps: List = []
        #: Optional :class:`~repro.obs.export.Telemetry` session (the engine
        #: binds it for telemetry-enabled runs).  Read via one ``is None``
        #: check per lifecycle decision — never inside the per-batch hook.
        self.telemetry = None

    def _build_monitor(self, kind: str, layer: int, tier: str) -> ScoreMonitor:
        spec = self.spec
        if kind == "page-hinkley":
            return build_monitor(
                kind, layer, tier, delta=spec.ph_delta, threshold=spec.ph_threshold
            )
        return build_monitor(
            kind, layer, tier,
            floor_fraction=spec.f1_floor_fraction,
            baseline_windows=spec.f1_baseline_windows,
        )

    # -- ingestion ---------------------------------------------------------------

    def observe_batch(
        self,
        tick: int,
        layer: int,
        windows: np.ndarray,
        predictions: np.ndarray,
        labels: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        """Fold one detected batch (one tier within one tick) into the loop.

        ``scores`` are the per-window anomaly scores (minimum logPD — lower
        means the window reconstructs worse); their negated mean is the
        tier's per-tick "reconstruction badness" stream the Page–Hinkley
        monitor watches.  Labels play the delayed-label audit role:
        label-0 windows feed the clean retraining reservoir, every labelled
        window feeds the holdout slice the shadow gate scores against.

        The hook is array-in/array-out all the way down (the streaming loop
        hands it the engine's columnar arrays directly): confusion
        folding, reservoir feeding and the monitor stream build no
        intermediate per-window structures.
        """
        from repro.fleet.metrics import confusion_counts

        predictions = np.asarray(predictions, dtype=int)
        labels = np.asarray(labels, dtype=int)
        self._window_confusion[layer] += confusion_counts(predictions, labels)

        clean = np.flatnonzero(labels == 0)
        if clean.size:
            self.train_reservoirs[layer].extend(windows[clean], labels[clean])
            tick_range = self._train_ranges[layer]
            if tick_range is None:
                self._train_ranges[layer] = [int(tick), int(tick)]
            else:
                tick_range[1] = int(tick)
        self.holdout_reservoirs[layer].extend(windows, labels)

        if scores.size:
            badness = float(-np.mean(scores))
            for monitor in self.score_monitors[layer]:
                self._record(tick, monitor.update(tick, badness))

    def _record(self, tick: int, event: Optional[DriftEvent]) -> None:
        if event is None or tick < self.spec.warmup_ticks:
            return
        self.drifts.append(event)
        self._pending.add(event.layer)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.registry.counter(
                "adapt_drift_total",
                "Drift detections by monitor kind.",
                labelnames=("monitor",),
            ).labels(monitor=event.monitor).value += 1
            telemetry.event(
                "adapt.drift",
                tick=event.tick,
                tier=event.tier,
                monitor=event.monitor,
                statistic=event.statistic,
                threshold=event.threshold,
            )

    # -- tick boundary -----------------------------------------------------------

    def end_tick(self, tick: int) -> None:
        """Run the lifecycle state machine at the tick boundary."""
        self._feed_f1_monitors(tick)
        for layer in sorted(self._pending):
            if tick < self._cooldown_until[layer]:
                continue
            if len(self.train_reservoirs[layer]) < self.spec.min_retrain_windows:
                continue
            self._pending.discard(layer)
            self._cooldown_until[layer] = tick + 1 + self.spec.cooldown_ticks
            self._retrain(tick, layer)

    def _feed_f1_monitors(self, tick: int) -> None:
        if (tick + 1) % self.metrics_window != 0:
            return
        from repro.fleet.metrics import rates_from_confusion

        for layer in range(len(self.tier_names)):
            counts = self._window_confusion[layer]
            if counts.sum():
                f1 = rates_from_confusion(counts)["f1"]
                for monitor in self.f1_monitors[layer]:
                    self._record(tick, monitor.update(tick, f1))
        self._window_confusion[:] = 0

    def _retrain(self, tick: int, layer: int) -> None:
        telemetry = self.telemetry
        if telemetry is not None and telemetry.trace_enabled:
            # One span per lifecycle attempt links the triggering drift to
            # the gate verdict and (when accepted) the hot-swap; activating
            # it stamps the adapt.gate/adapt.swap events with its ids.
            span = telemetry.tracer.start_span(
                "adapt.retrain", tick=int(tick), tier=self.tier_names[layer]
            )
            with telemetry.tracer.activate(span):
                self._retrain_impl(tick, layer, span)
        else:
            self._retrain_impl(tick, layer, None)

    def _retrain_impl(self, tick: int, layer: int, span) -> None:
        tier = self.tier_names[layer]
        telemetry = self.telemetry
        incumbent = self.system.deployment_at(layer).detector
        train_windows, _ = self.train_reservoirs[layer].snapshot()
        holdout_windows, holdout_labels = self.holdout_reservoirs[layer].snapshot()

        started = time.perf_counter()
        # Fine-tune, then put the candidate into its deployable form (FP16 on
        # quantised tiers) *before* the gate — the gate must judge exactly
        # the model that would serve traffic.
        candidate = self.retrainer.fine_tune(incumbent, train_windows)
        quantization = self.deployer.prepare_candidate(layer, candidate)
        outcome = self.retrainer.evaluate(
            candidate,
            incumbent,
            holdout_windows,
            holdout_labels,
            n_train_windows=train_windows.shape[0],
        )
        retrain_seconds = time.perf_counter() - started

        candidate_version = None
        if outcome.accepted:
            started = time.perf_counter()
            tick_range = self._train_ranges[layer]
            swap = self.deployer.swap(
                tick=tick,
                layer=layer,
                tier=tier,
                candidate=outcome.candidate,
                quantization=quantization,
                training_window=tuple(tick_range) if tick_range else None,
                n_train_windows=outcome.n_train_windows,
            )
            swap_seconds = time.perf_counter() - started
            candidate_version = swap.to_version
            self.swaps.append(swap)
            if telemetry is not None:
                telemetry.registry.counter(
                    "adapt_swaps_total", "Gated candidates hot-swapped live."
                ).inc()
                telemetry.registry.histogram(
                    "adapt_swap_seconds",
                    "Hot-swap (commit + promote + rebind) latency.",
                    buckets=_SECONDS_BUCKETS,
                ).observe(swap_seconds)
                telemetry.event(
                    "adapt.swap",
                    tick=int(tick),
                    tier=tier,
                    from_version=swap.from_version,
                    to_version=swap.to_version,
                )
            # The new model gets fresh monitor baselines.
            for monitor in self.score_monitors[layer] + self.f1_monitors[layer]:
                monitor.reset()

        self.retrains.append(
            RetrainEvent(
                tick=int(tick),
                layer=int(layer),
                tier=tier,
                n_train_windows=outcome.n_train_windows,
                n_holdout_windows=outcome.n_holdout_windows,
                incumbent_f1=outcome.incumbent_f1,
                candidate_f1=outcome.candidate_f1,
                accepted=outcome.accepted,
                candidate_version=candidate_version,
            )
        )
        if telemetry is not None:
            accepted = "true" if outcome.accepted else "false"
            telemetry.registry.counter(
                "adapt_retrains_total",
                "Retrain attempts by gate verdict.",
                labelnames=("accepted",),
            ).labels(accepted=accepted).value += 1
            telemetry.registry.histogram(
                "adapt_retrain_seconds",
                "Fine-tune + shadow-gate latency.",
                buckets=_SECONDS_BUCKETS,
            ).observe(retrain_seconds)
            telemetry.event(
                "adapt.gate",
                tick=int(tick),
                tier=tier,
                accepted=outcome.accepted,
                incumbent_f1=outcome.incumbent_f1,
                candidate_f1=outcome.candidate_f1,
            )
            if span is not None:
                span.end(accepted=outcome.accepted)

    # -- checkpointing -----------------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """Picklable mid-run state for the fleet checkpoint layer.

        Captures everything the lifecycle state machine needs to continue
        bit-identically: the reservoirs and monitors (whole objects — their
        internal RNG/statistics are mid-stream), the pending/cooldown machine,
        the recorded timeline, and for each tier the *currently deployed*
        detector plus its registry lineage metadata.  The controller object
        itself is never pickled (it owns an unpicklable run-scoped temporary
        directory); the engine stores this snapshot instead.
        """
        deployments = []
        for layer, tier in enumerate(self.tier_names):
            deployment = self.system.deployment_at(layer)
            current = self.registry.current(tier)
            deployments.append(
                {
                    "tier": tier,
                    "detector": deployment.detector,
                    "quantized": deployment.quantized,
                    "quantization": deployment.quantization,
                    "version": self.registry.show(current) if current else None,
                }
            )
        return {
            "window_confusion": self._window_confusion.copy(),
            "train_ranges": [
                list(r) if r is not None else None for r in self._train_ranges
            ],
            "pending": set(self._pending),
            "cooldown_until": list(self._cooldown_until),
            "drifts": list(self.drifts),
            "retrains": list(self.retrains),
            "swaps": list(self.swaps),
            "train_reservoirs": self.train_reservoirs,
            "holdout_reservoirs": self.holdout_reservoirs,
            "score_monitors": self.score_monitors,
            "f1_monitors": self.f1_monitors,
            "deployments": deployments,
        }

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Restore the state captured by :meth:`snapshot_state`.

        Rebinds the checkpointed detectors into the live system's deployments
        and reconciles the registry: each restored detector is re-committed
        (commits are content-addressed and idempotent) and must hash to the
        exact version recorded at checkpoint time — a mismatch means the
        pickled weights do not match the lineage metadata and resuming would
        silently diverge, so it raises
        :class:`~repro.exceptions.SerializationError`.  Promotion is skipped
        when the registry (a persistent one that survived the crash) already
        has the version current.
        """
        from repro.exceptions import SerializationError
        from repro.nn.quantization import QuantizationReport

        deployments = snapshot["deployments"]
        tiers = tuple(entry["tier"] for entry in deployments)
        if tiers != self.tier_names:
            raise SerializationError(
                f"checkpointed controller served tiers {tiers}, this run serves "
                f"{self.tier_names}"
            )
        self._window_confusion = np.array(snapshot["window_confusion"], dtype=np.int64)
        self._train_ranges = [
            list(r) if r is not None else None for r in snapshot["train_ranges"]
        ]
        self._pending = set(snapshot["pending"])
        self._cooldown_until = list(snapshot["cooldown_until"])
        self.drifts = list(snapshot["drifts"])
        self.retrains = list(snapshot["retrains"])
        self.swaps = list(snapshot["swaps"])
        self.train_reservoirs = list(snapshot["train_reservoirs"])
        self.holdout_reservoirs = list(snapshot["holdout_reservoirs"])
        self.score_monitors = [list(group) for group in snapshot["score_monitors"]]
        self.f1_monitors = [list(group) for group in snapshot["f1_monitors"]]

        for layer, entry in enumerate(deployments):
            deployment = self.system.deployment_at(layer)
            deployment.detector = entry["detector"]
            deployment.quantized = bool(entry["quantized"])
            deployment.quantization = entry["quantization"]
            meta = entry["version"]
            if meta is None:
                continue
            quantization = None
            if meta.quantization is not None:
                quantization = QuantizationReport(
                    parameter_count=meta.quantization["parameter_count"],
                    original_bytes=meta.quantization["original_bytes"],
                    quantized_bytes=meta.quantization["quantized_bytes"],
                    max_absolute_error=meta.quantization["max_absolute_error"],
                )
            committed = self.registry.commit(
                entry["detector"],
                tier=entry["tier"],
                layer=layer,
                parent=meta.parent,
                training_window=meta.training_window,
                n_train_windows=meta.n_train_windows,
                quantization=quantization,
            )
            if committed.version != meta.version:
                raise SerializationError(
                    f"restored detector for tier {entry['tier']!r} hashes to "
                    f"{committed.version}, but the checkpoint recorded "
                    f"{meta.version} — weights and lineage disagree"
                )
            if self.registry.current(entry["tier"]) != meta.version:
                self.registry.promote(meta.version, entry["tier"])
        # No bump_state_version() here: the engine restores the system's
        # checkpointed state_version (already post-swap) around this call.

    # -- result ------------------------------------------------------------------

    @property
    def registry_is_ephemeral(self) -> bool:
        """Whether the registry lives in the run-scoped temporary directory."""
        return self._tmpdir is not None

    def timeline(self) -> AdaptationTimeline:
        """The (deterministic, timing-free) record of what the loop did."""
        return AdaptationTimeline(
            drifts=tuple(self.drifts),
            retrains=tuple(self.retrains),
            swaps=tuple(self.swaps),
        )


def build_controller(
    spec: AdaptSpec,
    system: HECSystem,
    tier_names: Sequence[str],
    metrics_window: int,
    master_seed: int = 0,
    registry_root: Optional[str] = None,
) -> AdaptationController:
    """Construct the controller for one streaming run (convenience factory)."""
    return AdaptationController(
        spec=spec,
        system=system,
        tier_names=tier_names,
        metrics_window=metrics_window,
        master_seed=master_seed,
        registry_root=registry_root,
    )
