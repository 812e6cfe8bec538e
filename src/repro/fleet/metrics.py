"""Online evaluation: streaming metrics that never hold the full trace.

:class:`StreamingMetrics` aggregates a fleet run incrementally: global and
windowed confusion counts (accuracy/F1 per block of ticks), per-tier
utilisation and delay sums, and end-to-end delay percentiles estimated from a
bounded :class:`DelayReservoir` — O(reservoir + ticks/metrics_window + tiers)
memory regardless of how many windows stream through.

Aggregators are mergeable: :meth:`StreamingMetrics.merge` folds per-shard
aggregators (in shard order) into the fleet-wide result, which is how
:class:`~repro.fleet.engine.ShardedFleetEngine` reduces its workers.  Merging
a single aggregator is the identity, so a one-shard run reproduces the
unsharded engine bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

#: SeedSequence entropy tag for the reservoir-merge subsampling draws.
_MERGE_TAG = 0x5EED


class DelayReservoir:
    """Bounded uniform sample of a delay stream (Vitter's algorithm R).

    The replacement slot for the ``i``-th overflow sample is drawn as
    ``floor(u * seen)`` from one uniform ``u`` — a formulation chosen because
    a batch of uniforms is stream-equivalent to the same scalar draws, which
    lets :meth:`extend` vectorise the whole replacement phase while staying
    draw-for-draw identical to repeated :meth:`add` calls (pinned by test).
    The samples live in a preallocated array; :attr:`values` presents them as
    a list for the merge/serialisation API.
    """

    def __init__(self, capacity: int, seed_entropy: Sequence[int]) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._store = np.empty(self.capacity, dtype=float)
        self._size = 0
        self.seen = 0
        self._rng = np.random.default_rng(
            np.random.SeedSequence([int(e) & 0xFFFFFFFF for e in seed_entropy])
        )

    @property
    def values(self) -> List[float]:
        """The sampled delays, in slot order."""
        return self._store[: self._size].tolist()

    @values.setter
    def values(self, new_values) -> None:
        new_values = np.asarray(list(new_values), dtype=float)
        if new_values.size > self.capacity:
            raise ConfigurationError(
                f"cannot hold {new_values.size} samples in a reservoir of "
                f"capacity {self.capacity}"
            )
        self._size = int(new_values.size)
        self._store[: self._size] = new_values

    def add(self, value: float) -> None:
        """Offer one sample to the reservoir."""
        self.seen += 1
        if self._size < self.capacity:
            self._store[self._size] = value
            self._size += 1
            return
        slot = int(self._rng.random() * self.seen)
        if slot < self.capacity:
            self._store[slot] = value

    def extend(self, values) -> None:
        """Offer a batch of samples in order.

        Draw-for-draw identical to calling :meth:`add` per value: the fill
        phase is bulk-copied (no RNG), and the replacement phase draws one
        uniform batch (stream-equivalent to the scalar draws) and applies the
        slot writes with NumPy's last-write-wins fancy assignment — the same
        final state as sequential overwrites.
        """
        values = np.asarray(values, dtype=float)
        if not values.size:
            return
        free = self.capacity - self._size
        if free > 0:
            head = values[:free]
            self._store[self._size: self._size + head.size] = head
            self._size += int(head.size)
            self.seen += int(head.size)
            values = values[free:]
        overflow = int(values.size)
        if not overflow:
            return
        draws = self._rng.random(overflow)
        bounds = self.seen + 1 + np.arange(overflow)
        slots = (draws * bounds).astype(np.int64)
        self.seen += overflow
        hits = slots < self.capacity
        if hits.any():
            self._store[slots[hits]] = values[hits]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sampled delays (NaN when empty)."""
        if not self._size:
            return float("nan")
        return float(np.percentile(self._store[: self._size], q))

    @classmethod
    def merge(cls, parts: Sequence["DelayReservoir"], seed_entropy: Sequence[int]
              ) -> "DelayReservoir":
        """Fold per-shard reservoirs into one, deterministically.

        Samples are concatenated in shard order; when the union exceeds the
        capacity it is subsampled without replacement, weighting each sample
        by its source stream's seen/kept ratio so heavier shards stay
        proportionally represented.  A single part merges to an exact copy.
        """
        if not parts:
            raise ConfigurationError("cannot merge zero reservoirs")
        capacity = parts[0].capacity
        merged = cls(capacity, seed_entropy)
        merged.seen = int(sum(part.seen for part in parts))
        if len(parts) == 1:
            merged.values = list(parts[0].values)
            return merged
        pooled: List[float] = []
        weights: List[float] = []
        for part in parts:
            pooled.extend(part.values)
            if part.values:
                weights.extend([part.seen / len(part.values)] * len(part.values))
        if len(pooled) <= capacity:
            merged.values = pooled
            return merged
        probabilities = np.asarray(weights, dtype=float)
        probabilities /= probabilities.sum()
        chosen = merged._rng.choice(
            len(pooled), size=capacity, replace=False, p=probabilities
        )
        merged.values = [pooled[index] for index in sorted(chosen)]
        return merged


class StreamingMetrics:
    """Incremental fleet-run aggregation (confusion, tiers, delays, uptime)."""

    def __init__(
        self,
        ticks: int,
        metrics_window: int,
        n_layers: int,
        reservoir_size: int,
        seed_entropy: Sequence[int],
    ) -> None:
        if ticks <= 0 or metrics_window <= 0:
            raise ConfigurationError(
                f"ticks and metrics_window must be positive, got {ticks}/{metrics_window}"
            )
        self.ticks = int(ticks)
        self.metrics_window = int(metrics_window)
        self.n_layers = int(n_layers)
        self.n_metric_windows = -(-self.ticks // self.metrics_window)
        # Confusion counts: [tp, fp, tn, fn], globally and per metrics window.
        self.confusion = np.zeros(4, dtype=np.int64)
        self.windowed_confusion = np.zeros((self.n_metric_windows, 4), dtype=np.int64)
        self.windowed_delay_sum = np.zeros(self.n_metric_windows)
        # Per-tier utilisation.
        self.layer_requests = np.zeros(self.n_layers, dtype=np.int64)
        self.layer_delay_sum = np.zeros(self.n_layers)
        self.layer_anomalies = np.zeros(self.n_layers, dtype=np.int64)
        self.layer_redirected = np.zeros(self.n_layers, dtype=np.int64)
        # Delay stream.
        self.delay_sum = 0.0
        self.delay_max = 0.0
        self.reservoir = DelayReservoir(reservoir_size, seed_entropy)
        # Fleet uptime.
        self.online_device_ticks = 0
        self.offline_device_ticks = 0

    # -- ingestion ---------------------------------------------------------------

    def record_uptime(self, online: int, offline: int) -> None:
        """Account one tick's online/offline device counts."""
        self.online_device_ticks += int(online)
        self.offline_device_ticks += int(offline)

    def observe(
        self,
        tick: int,
        layer: int,
        predictions: np.ndarray,
        labels: np.ndarray,
        delays_ms: np.ndarray,
        redirected: int = 0,
    ) -> None:
        """Fold one detected batch (a single layer within one tick) in.

        ``layer`` is the tier that actually *served* the batch;
        ``redirected`` counts how many of its windows were redirected there
        because their requested tier was unreachable (failover accounting).
        """
        predictions = np.asarray(predictions, dtype=int)
        labels = np.asarray(labels, dtype=int)
        delays_ms = np.asarray(delays_ms, dtype=float)
        if not 0 <= tick < self.ticks:
            raise ConfigurationError(f"tick must lie in [0, {self.ticks}), got {tick}")
        counts = confusion_counts(predictions, labels)
        window = tick // self.metrics_window
        delay_sum = float(delays_ms.sum())
        self.confusion += counts
        self.windowed_confusion[window] += counts
        self.windowed_delay_sum[window] += delay_sum
        self.layer_requests[layer] += predictions.shape[0]
        self.layer_delay_sum[layer] += delay_sum
        self.layer_anomalies[layer] += int(predictions.sum())
        self.layer_redirected[layer] += int(redirected)
        self.delay_sum += delay_sum
        if delays_ms.size:
            self.delay_max = max(self.delay_max, float(delays_ms.max()))
        self.reservoir.extend(delays_ms)

    # -- derived -----------------------------------------------------------------

    @property
    def n_windows(self) -> int:
        """Total number of windows evaluated so far."""
        return int(self.confusion.sum())

    # -- transport ---------------------------------------------------------------

    def to_payload(self) -> dict:
        """A compact, picklable snapshot of the aggregated counts.

        What a shard worker ships back instead of the whole aggregator: the
        count arrays plus the reservoir's sample — everything
        :meth:`merge` reads — and nothing else (in particular no RNG state,
        which the merge re-derives from its own seed entropy).
        """
        return {
            "ticks": self.ticks,
            "metrics_window": self.metrics_window,
            "n_layers": self.n_layers,
            "confusion": self.confusion,
            "windowed_confusion": self.windowed_confusion,
            "windowed_delay_sum": self.windowed_delay_sum,
            "layer_requests": self.layer_requests,
            "layer_delay_sum": self.layer_delay_sum,
            "layer_anomalies": self.layer_anomalies,
            "layer_redirected": self.layer_redirected,
            "delay_sum": self.delay_sum,
            "delay_max": self.delay_max,
            "online_device_ticks": self.online_device_ticks,
            "offline_device_ticks": self.offline_device_ticks,
            "reservoir_capacity": self.reservoir.capacity,
            "reservoir_seen": self.reservoir.seen,
            "reservoir_values": list(self.reservoir.values),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "StreamingMetrics":
        """Rebuild an aggregator from :meth:`to_payload` (for merging).

        The reconstructed reservoir carries the shard's sample and ``seen``
        count but a fresh placeholder RNG — it exists to be merged, not to
        keep sampling.
        """
        metrics = cls(
            ticks=int(payload["ticks"]),
            metrics_window=int(payload["metrics_window"]),
            n_layers=int(payload["n_layers"]),
            reservoir_size=int(payload["reservoir_capacity"]),
            seed_entropy=(0,),
        )
        metrics.confusion = np.asarray(payload["confusion"], dtype=np.int64)
        metrics.windowed_confusion = np.asarray(
            payload["windowed_confusion"], dtype=np.int64
        )
        metrics.windowed_delay_sum = np.asarray(payload["windowed_delay_sum"], dtype=float)
        metrics.layer_requests = np.asarray(payload["layer_requests"], dtype=np.int64)
        metrics.layer_delay_sum = np.asarray(payload["layer_delay_sum"], dtype=float)
        metrics.layer_anomalies = np.asarray(payload["layer_anomalies"], dtype=np.int64)
        # Absent in payloads written before the failover accounting existed.
        metrics.layer_redirected = np.asarray(
            payload.get("layer_redirected", np.zeros(metrics.n_layers)), dtype=np.int64
        )
        metrics.delay_sum = float(payload["delay_sum"])
        metrics.delay_max = float(payload["delay_max"])
        metrics.online_device_ticks = int(payload["online_device_ticks"])
        metrics.offline_device_ticks = int(payload["offline_device_ticks"])
        metrics.reservoir.seen = int(payload["reservoir_seen"])
        metrics.reservoir.values = [float(v) for v in payload["reservoir_values"]]
        return metrics

    def snapshot_state(self) -> dict:
        """A mid-run snapshot for the fleet checkpoint layer.

        Unlike :meth:`to_payload` (a terminal shard result, RNG-free), a
        checkpoint must let the reservoir *keep sampling* bit-identically, so
        the reservoir's generator state rides along.
        """
        snapshot = self.to_payload()
        snapshot["reservoir_rng_state"] = self.reservoir._rng.bit_generator.state
        return snapshot

    def restore_state(self, snapshot: dict) -> None:
        """Restore the state captured by :meth:`snapshot_state` in place."""
        if (
            int(snapshot["ticks"]) != self.ticks
            or int(snapshot["metrics_window"]) != self.metrics_window
            or int(snapshot["n_layers"]) != self.n_layers
            or int(snapshot["reservoir_capacity"]) != self.reservoir.capacity
        ):
            raise ConfigurationError(
                "checkpointed metrics shape does not match this run — was the "
                "spec changed between checkpoint and resume?"
            )
        restored = StreamingMetrics.from_payload(snapshot)
        for name in (
            "confusion", "windowed_confusion", "windowed_delay_sum",
            "layer_requests", "layer_delay_sum", "layer_anomalies",
            "layer_redirected", "delay_sum", "delay_max",
            "online_device_ticks", "offline_device_ticks",
        ):
            setattr(self, name, getattr(restored, name))
        self.reservoir.seen = restored.reservoir.seen
        self.reservoir.values = restored.reservoir.values
        self.reservoir._rng.bit_generator.state = snapshot["reservoir_rng_state"]

    @classmethod
    def merge(
        cls, parts: Sequence["StreamingMetrics"], seed_entropy: Sequence[int]
    ) -> "StreamingMetrics":
        """Fold per-shard aggregators (in shard order) into one."""
        if not parts:
            raise ConfigurationError("cannot merge zero metric aggregators")
        first = parts[0]
        for part in parts[1:]:
            if (
                part.ticks != first.ticks
                or part.metrics_window != first.metrics_window
                or part.n_layers != first.n_layers
                or part.reservoir.capacity != first.reservoir.capacity
            ):
                raise ConfigurationError("cannot merge metric aggregators with different shapes")
        merged = cls(
            ticks=first.ticks,
            metrics_window=first.metrics_window,
            n_layers=first.n_layers,
            reservoir_size=first.reservoir.capacity,
            seed_entropy=list(seed_entropy) + [_MERGE_TAG],
        )
        for part in parts:
            merged.confusion += part.confusion
            merged.windowed_confusion += part.windowed_confusion
            merged.windowed_delay_sum += part.windowed_delay_sum
            merged.layer_requests += part.layer_requests
            merged.layer_delay_sum += part.layer_delay_sum
            merged.layer_anomalies += part.layer_anomalies
            merged.layer_redirected += part.layer_redirected
            merged.delay_sum += part.delay_sum
            merged.delay_max = max(merged.delay_max, part.delay_max)
            merged.online_device_ticks += part.online_device_ticks
            merged.offline_device_ticks += part.offline_device_ticks
        merged.reservoir = DelayReservoir.merge(
            [part.reservoir for part in parts],
            list(seed_entropy) + [_MERGE_TAG],
        )
        return merged


def confusion_counts(predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The ``[tp, fp, tn, fn]`` count vector for one batch of binary outcomes.

    The single source of the count ordering :func:`rates_from_confusion`
    expects — shared by the streaming aggregator and the adaptation loop's
    windowed-F1 and shadow-gate computations.
    """
    predictions = np.asarray(predictions, dtype=int)
    labels = np.asarray(labels, dtype=int)
    return np.array(
        [
            np.sum((predictions == 1) & (labels == 1)),
            np.sum((predictions == 1) & (labels == 0)),
            np.sum((predictions == 0) & (labels == 0)),
            np.sum((predictions == 0) & (labels == 1)),
        ],
        dtype=np.int64,
    )


def rates_from_confusion(counts: np.ndarray) -> dict:
    """accuracy/precision/recall/F1 from one ``[tp, fp, tn, fn]`` vector."""
    tp, fp, tn, fn = (int(c) for c in counts)
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": float(accuracy),
        "precision": float(precision),
        "recall": float(recall),
        "f1": float(f1),
        "anomaly_fraction": float((tp + fn) / total) if total else 0.0,
    }
