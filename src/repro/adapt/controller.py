"""The adaptation controller: monitor -> retrain -> gate -> swap, per tick.

:class:`AdaptationController` is the object the streaming engine talks to,
and the one place the model lifecycle lives.  Per tick it ingests every
detected batch (windows, predictions, labels and anomaly scores, per tier),
feeds the drift monitors and the retraining reservoirs, and at the tick
boundary runs the lifecycle state machine:

1. a monitor fires -> the tier is marked *pending*;
2. a pending tier outside its cooldown, with enough reservoir fill, gets a
   drift-triggered fine-tune of a deep copy of its incumbent on the recent
   clean-window sample (refitting the scorer recalibrates the threshold);
3. the candidate is quantised like its tier's original deployment, then must
   beat the incumbent's F1 on the labelled holdout slice (the shadow gate) —
   rejected candidates are recorded and discarded;
4. an accepted candidate is committed to the registry, promoted and
   hot-swapped into the live system by one deployment rebind at the tick
   boundary, so no in-flight batch sees a half-updated model; the tier's
   monitors reset so the new model gets a fresh baseline.

Construction commits every deployed detector as its tier's root version, so
lineage is complete from the first swap on.  Everything the controller does
is recorded in an :class:`~repro.adapt.events.AdaptationTimeline`;
wall-clock retrain/swap latencies go only to the telemetry session's
``adapt_retrain_seconds`` / ``adapt_swap_seconds`` histograms, so the
timeline (and the fleet report carrying it) stays timing-free and
deterministic.
"""

from __future__ import annotations

import copy
import tempfile
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.adapt.events import AdaptationTimeline, DriftEvent, RetrainEvent, SwapEvent
from repro.adapt.monitors import F1FloorMonitor, PageHinkleyMonitor, ScoreMonitor
from repro.adapt.registry import ModelRegistry
from repro.adapt.spec import AdaptSpec
from repro.detectors.base import AnomalyDetector
from repro.evaluation.metrics import confusion_counts, rates_from_confusion
from repro.fleet.metrics import DelayReservoir, mix64
from repro.hec.simulation import HECSystem
from repro.nn.quantization import QuantizationReport, quantize_model

#: Key-salt tags separating the train/holdout samples of one window stream.
_TRAIN_TAG = 0xAD01
_HOLDOUT_TAG = 0xAD02

#: Bucket bounds for the retrain/swap duration histograms (seconds).
_SECONDS_BUCKETS = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)


def _key_salts(seed: int, tag: int, n_layers: int) -> np.ndarray:
    """One key salt per layer for the sample ``tag`` names, under ``seed``."""
    base = mix64(np.uint64(int(seed) % 2**64)) ^ np.uint64(tag << 16)
    return mix64(base ^ np.arange(n_layers, dtype=np.uint64))


def _f1(detector: AnomalyDetector, windows: np.ndarray, labels: np.ndarray) -> float:
    """Windowed detection F1 of ``detector`` on a labelled holdout slice."""
    return rates_from_confusion(confusion_counts(detector.predict(windows), labels))["f1"]


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
        # Each deployed detector becomes its tier's root version and is made
        # current unless it already is: every tier gets a rollback target and
        # every later candidate a parent.  A run against a registry an earlier
        # run left behind starts from its own roots, never from that run's
        # last swap.
        for layer, tier in enumerate(self.tier_names):
            deployment = system.deployment_at(layer)
            meta = self.registry.commit(
                deployment.detector,
                tier=tier,
                layer=layer,
                parent=None,
                quantization=deployment.quantization,
            )
            if self.registry.current(tier) != meta.version:
                self.registry.promote(meta.version, tier)

        n_layers = len(self.tier_names)
        # Keyed bottom-k samples of each tier's windows, under the engine's
        # window keys: the train sample holds clean windows, the holdout all
        # windows with their labels.  Salting the keys per sample and layer
        # makes the two samples independent.
        self._train_salts = _key_salts(spec.seed, _TRAIN_TAG, n_layers)
        self._holdout_salts = _key_salts(spec.seed, _HOLDOUT_TAG, n_layers)
        self.train_reservoirs = [
            DelayReservoir(spec.reservoir_size) for _ in range(n_layers)
        ]
        self.holdout_reservoirs = [
            DelayReservoir(spec.holdout_size, labelled=True) for _ in range(n_layers)
        ]
        # Per-tier monitors, at most one of each kind: "page-hinkley" watches
        # the per-tick mean score, "f1-floor" the windowed confusion blocks.
        self.score_monitors: List[List[ScoreMonitor]] = [
            [PageHinkleyMonitor(layer, tier, spec.ph_delta, spec.ph_threshold)]
            if "page-hinkley" in spec.monitors else []
            for layer, tier in enumerate(self.tier_names)
        ]
        self.f1_monitors: List[List[ScoreMonitor]] = [
            [F1FloorMonitor(layer, tier, spec.f1_floor_fraction, spec.f1_baseline_windows)]
            if "f1-floor" in spec.monitors else []
            for layer, tier in enumerate(self.tier_names)
        ]

        #: Per-tier [tp, fp, tn, fn] counts of the metrics window in progress.
        self._window_confusion = np.zeros((n_layers, 4), dtype=np.int64)
        #: Tick range (start, end) covered by each tier's train reservoir.
        self._train_ranges: List[Optional[List[int]]] = [None] * n_layers
        self._pending: set = set()
        self._cooldown_until = [0] * n_layers

        self.drifts: List[DriftEvent] = []
        self.retrains: List[RetrainEvent] = []
        self.swaps: List[SwapEvent] = []
        #: Optional :class:`~repro.obs.export.Telemetry` session (the engine
        #: binds it for telemetry-enabled runs).  Read via one ``is None``
        #: check per lifecycle decision — never inside the per-batch hook.
        self.telemetry = None

    # -- ingestion ---------------------------------------------------------------

    def observe_batch(
        self,
        tick: int,
        layer: int,
        windows: np.ndarray,
        keys: np.ndarray,
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
        ``keys`` are the engine's window keys (distinct within a run), so
        each sample is a function of the windows seen, not of their order.

        The hook is array-in/array-out all the way down (the streaming loop
        hands it the engine's columnar arrays directly): confusion folding,
        one vectorised offer per reservoir and the monitor stream build no
        per-window structures.
        """
        predictions = np.asarray(predictions, dtype=int)
        labels = np.asarray(labels, dtype=int)
        self._window_confusion[layer] += confusion_counts(predictions, labels)

        keys = np.asarray(keys, dtype=np.uint64)
        clean = np.flatnonzero(labels == 0)
        if clean.size:
            self.train_reservoirs[layer].extend(
                windows[clean], keys[clean] ^ self._train_salts[layer]
            )
            tick_range = self._train_ranges[layer]
            if tick_range is None:
                self._train_ranges[layer] = [int(tick), int(tick)]
            else:
                tick_range[1] = int(tick)
        self.holdout_reservoirs[layer].extend(
            windows, keys ^ self._holdout_salts[layer], labels=labels
        )

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
        for layer in range(len(self.tier_names)):
            counts = self._window_confusion[layer]
            if counts.sum():
                f1 = rates_from_confusion(counts)["f1"]
                for monitor in self.f1_monitors[layer]:
                    self._record(tick, monitor.update(tick, f1))
        self._window_confusion[:] = 0

    def _fine_tune(
        self,
        incumbent: AnomalyDetector,
        train_windows: np.ndarray,
        seed: Sequence[int],
    ) -> AnomalyDetector:
        """A candidate: the incumbent deep-copied and fine-tuned on recent data.

        ``fit`` continues from the incumbent's weights (warm start) and refits
        the Gaussian scorer — and thereby the detection threshold — on the
        drifted window sample, which is what recalibrates the false-positive
        rate after a distribution shift.  The incumbent itself is untouched
        and keeps serving traffic until the swap.

        The copy's model generator (minibatch shuffling, dropout) is reseeded
        in place from ``seed``, so the candidate is a function of the
        incumbent's weights, the windows and ``seed`` — all a resume can
        rebuild — and never of the fits the incumbent's generator went through.
        """
        candidate = copy.deepcopy(incumbent)
        # The model's layers share its generator: reseed that object in place.
        generator = candidate.model._rng
        generator.bit_generator.state = type(generator.bit_generator)(
            np.random.SeedSequence([int(part) % 2**64 for part in seed])
        ).state
        candidate.fit(
            np.asarray(train_windows, dtype=float),
            epochs=self.spec.retrain_epochs,
            batch_size=self.spec.retrain_batch_size,
            learning_rate=self.spec.retrain_learning_rate,
            early_stopping_patience=2,
        )
        return candidate

    def _retrain(self, tick: int, layer: int) -> None:
        """One lifecycle attempt on ``layer``: fine-tune, quantise, gate, swap.

        The candidate is put into its deployable form (FP16 on quantised
        tiers) *before* the gate, so the gate judges exactly the model that
        would serve traffic; the incumbent is scored first.  A candidate
        that beats the incumbent's holdout F1 is committed with its lineage,
        promoted, and rebound live.  Both outcomes are recorded.
        """
        tier = self.tier_names[layer]
        telemetry = self.telemetry
        span = None
        scope = nullcontext()
        if telemetry is not None and telemetry.trace_enabled:
            # One span per lifecycle attempt links the triggering drift to
            # the gate verdict and (when accepted) the hot-swap; activating
            # it stamps the adapt.gate/adapt.swap events with its ids.
            span = telemetry.tracer.start_span("adapt.retrain", tick=int(tick), tier=tier)
            scope = telemetry.tracer.activate(span)
        with scope:
            deployment = self.system.deployment_at(layer)
            incumbent = deployment.detector
            train_windows = self.train_reservoirs[layer].sample()[0]
            holdout_windows, _, holdout_labels = self.holdout_reservoirs[layer].sample()

            started = time.perf_counter()
            candidate = self._fine_tune(
                incumbent, train_windows, seed=(self.master_seed, self.spec.seed, layer, tick)
            )
            quantization = quantize_model(candidate.model) if deployment.quantized else None
            incumbent_f1 = _f1(incumbent, holdout_windows, holdout_labels)
            candidate_f1 = _f1(candidate, holdout_windows, holdout_labels)
            accepted = candidate_f1 > incumbent_f1
            retrain_seconds = time.perf_counter() - started

            candidate_version = None
            if accepted:
                started = time.perf_counter()
                from_version = self.registry.current(tier)
                tick_range = self._train_ranges[layer]
                meta = self.registry.commit(
                    candidate,
                    tier=tier,
                    layer=layer,
                    parent=from_version,
                    training_window=tuple(tick_range) if tick_range else None,
                    n_train_windows=train_windows.shape[0],
                    quantization=quantization,
                )
                self.registry.promote(meta.version, tier)
                self._rebind(layer, candidate, quantization)
                # Invalidate any snapshot keyed on the pre-swap model set (the
                # sharded engine's forked worker pools hold copy-on-write state).
                self.system.bump_state_version()
                swap_seconds = time.perf_counter() - started
                candidate_version = meta.version
                self.swaps.append(
                    SwapEvent(
                        tick=int(tick),
                        layer=int(layer),
                        tier=tier,
                        from_version=from_version,
                        to_version=candidate_version,
                        quantized=quantization is not None,
                    )
                )
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
                        from_version=from_version,
                        to_version=candidate_version,
                    )
                # The new model gets fresh monitor baselines.
                for monitor in self.score_monitors[layer] + self.f1_monitors[layer]:
                    monitor.reset()

            self.retrains.append(
                RetrainEvent(
                    tick=int(tick),
                    layer=int(layer),
                    tier=tier,
                    n_train_windows=int(train_windows.shape[0]),
                    n_holdout_windows=int(holdout_windows.shape[0]),
                    incumbent_f1=incumbent_f1,
                    candidate_f1=candidate_f1,
                    accepted=accepted,
                    candidate_version=candidate_version,
                )
            )
            if telemetry is not None:
                telemetry.registry.counter(
                    "adapt_retrains_total",
                    "Retrain attempts by gate verdict.",
                    labelnames=("accepted",),
                ).labels(accepted="true" if accepted else "false").value += 1
                telemetry.registry.histogram(
                    "adapt_retrain_seconds",
                    "Fine-tune + shadow-gate latency.",
                    buckets=_SECONDS_BUCKETS,
                ).observe(retrain_seconds)
                telemetry.event(
                    "adapt.gate",
                    tick=int(tick),
                    tier=tier,
                    accepted=accepted,
                    incumbent_f1=incumbent_f1,
                    candidate_f1=candidate_f1,
                )
                if span is not None:
                    span.end(accepted=accepted)

    def _rebind(
        self,
        layer: int,
        detector: AnomalyDetector,
        quantization: Optional[QuantizationReport],
    ) -> None:
        """Make ``detector`` the live model of ``layer``: one record rebind.

        The deployment's quantisation bookkeeping follows the detector's
        actual form, so the record never describes a replaced model.
        """
        deployment = self.system.deployment_at(layer)
        deployment.detector = detector
        deployment.quantization = quantization
        deployment.quantized = quantization is not None

    # -- checkpointing -----------------------------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """The mid-run state for the fleet checkpoint layer, as plain data.

        Arrays, ints, the monitors, the recorded timeline, each reservoir's
        k sampled rows with its priorities, and each tier's current registry
        version — never a detector: the registry already stores every
        deployed model under its content address.  The controller object
        itself is never pickled (it owns an unpicklable run-scoped temporary
        directory); the engine stores this snapshot instead.
        """
        return {
            "window_confusion": self._window_confusion.copy(),
            "train_ranges": [
                list(r) if r is not None else None for r in self._train_ranges
            ],
            "pending": sorted(self._pending),
            "cooldown_until": list(self._cooldown_until),
            "drifts": list(self.drifts),
            "retrains": list(self.retrains),
            "swaps": list(self.swaps),
            "train_reservoirs": [r.to_payload() for r in self.train_reservoirs],
            "holdout_reservoirs": [r.to_payload() for r in self.holdout_reservoirs],
            "score_monitors": self.score_monitors,
            "f1_monitors": self.f1_monitors,
            "versions": {tier: self.registry.current(tier) for tier in self.tier_names},
        }

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Restore the state captured by :meth:`snapshot_state`.

        Each tier's recorded version is read back from the registry
        (:meth:`~repro.adapt.registry.ModelRegistry.restore`) into a copy of
        the deployed detector, made current, and rebound into the live
        deployment, so no object the caller still holds is mutated.  A
        registry that lacks a recorded version raises
        :class:`~repro.exceptions.SerializationError` naming it.
        """
        from repro.exceptions import SerializationError

        versions = snapshot["versions"]
        if tuple(versions) != self.tier_names:
            raise SerializationError(
                f"checkpointed controller served tiers {tuple(versions)}, this run "
                f"serves {self.tier_names}"
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
        self.train_reservoirs = [
            DelayReservoir.from_payload(r) for r in snapshot["train_reservoirs"]
        ]
        self.holdout_reservoirs = [
            DelayReservoir.from_payload(r) for r in snapshot["holdout_reservoirs"]
        ]
        self.score_monitors = [list(group) for group in snapshot["score_monitors"]]
        self.f1_monitors = [list(group) for group in snapshot["f1_monitors"]]

        for layer, (tier, version) in enumerate(versions.items()):
            detector = copy.deepcopy(self.system.deployment_at(layer).detector)
            meta = self.registry.restore(version, detector)
            if self.registry.current(tier) != version:
                self.registry.promote(version, tier)
            self._rebind(layer, detector, meta.quantization_report())
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
