"""Online evaluation: streaming metrics that never hold the full trace.

:class:`StreamingMetrics` aggregates a fleet run incrementally: global and
windowed confusion counts (accuracy/F1 per block of ticks), per-tier
utilisation and delay sums, and end-to-end delay percentiles read off a
bounded :class:`DelayReservoir` — O(reservoir + ticks/metrics_window + tiers)
memory regardless of how many windows stream through.

Every statistic is an order-free function of the windows it covers.  Delays
are summed as integer nanoseconds (:func:`delay_ns`: one rounding per delay,
then exact, associative sums), and the reservoir is a keyed bottom-k sample
whose keys name the windows, not their positions in a batch.  So any split of
a run into batches, ticks or shards, folded in any order, gives the same
bits: :meth:`StreamingMetrics.merge` of per-shard aggregators equals the
unsharded aggregator field for field, and :meth:`StreamingMetrics.to_payload`
is the one state codec for shard results and checkpoints alike.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.evaluation.metrics import confusion_counts
from repro.exceptions import ConfigurationError

# splitmix64's increment, and its output function's multipliers and shifts.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)


def mix64(keys) -> np.ndarray:
    """splitmix64 of each integer key: a fixed bijection of 64-bit words
    that scatters consecutive keys over the whole range (as ``uint64``)."""
    mixed = np.asarray(keys).astype(np.uint64)
    mixed += _GAMMA
    mixed ^= mixed >> _SHIFT1
    mixed *= _MIX1
    mixed ^= mixed >> _SHIFT2
    mixed *= _MIX2
    mixed ^= mixed >> _SHIFT3
    return mixed


#: A reservoir's columns: the sampled values, their priorities, then their
#: labels when the reservoir is labelled.
_COLUMNS = ("values", "priorities", "labels")


class DelayReservoir:
    """Keyed bottom-k sample of a stream of values.

    Each value arrives with an integer key naming what it measured (the
    fleet engine's window identity, serving's request row).  A value is a
    delay, or a row such as a whole window, optionally with an integer label
    (``labelled=True``).  The sample is the ``capacity`` values of smallest
    priority ``mix64(key)``: a uniform sample without replacement, and, for
    distinct keys, a function of the set of (key, value) pairs alone.  Any
    batching, interleaving or sharding of the stream keeps the same sample,
    and :meth:`merge` keeps the k smallest of the union (Cohen & Kaplan,
    *Summarizing data using bottom-k sketches*, PODC 2007).  While
    ``seen <= capacity`` the sample is the whole stream.  Two samples of one
    stream are independent when their keys carry different salts.

    Selection is amortised: offered entries collect in a buffer of twice
    the capacity, which one ``argpartition`` cuts back to the k smallest
    whenever it would overflow.  The first values offered set the buffer's
    row shape.
    """

    def __init__(self, capacity: int, labelled: bool = False) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self.seen = 0
        # The buffer's columns, as :data:`_COLUMNS` names them.
        self._columns = [np.empty(2 * self.capacity), np.empty(2 * self.capacity, np.uint64)]
        if labelled:
            self._columns.append(np.empty(2 * self.capacity, dtype=np.int64))
        self._size = 0

    @property
    def labelled(self) -> bool:
        """Whether each sampled value carries a label."""
        return len(self._columns) == len(_COLUMNS)

    def __len__(self) -> int:
        """The number of values in the sample."""
        return min(self._size, self.capacity)

    def extend(self, values, keys, labels=None) -> None:
        """Offer a batch of values (delays or rows), one key each, and one
        label each when the reservoir is labelled."""
        values = np.asarray(values, dtype=float)
        priorities = mix64(keys)
        if priorities.shape != values.shape[:1]:
            raise ConfigurationError(
                f"got {priorities.size} keys for {values.shape[:1]} values"
            )
        if (labels is not None) != self.labelled:
            raise ConfigurationError(
                "a labelled reservoir takes one label per value, an unlabelled one none"
            )
        self.seen += priorities.size
        if labels is None:
            self._offer(values, priorities)
        else:
            self._offer(values, priorities, np.asarray(labels, dtype=np.int64))

    def _offer(self, *columns: np.ndarray) -> None:
        """Add rows given column by column, as :data:`_COLUMNS` names them."""
        values, priorities = columns[:2]
        if not priorities.size:
            return
        if not self._size and values.shape[1:] != self._columns[0].shape[1:]:
            self._columns[0] = np.empty((2 * self.capacity, *values.shape[1:]))
        start, end = self._size, self._size + priorities.size
        if end > 2 * self.capacity:
            columns = [
                np.concatenate([buffer[:start], column])
                for buffer, column in zip(self._columns, columns)
            ]
            keep = np.argpartition(columns[1], self.capacity - 1)[: self.capacity]
            columns = [column[keep] for column in columns]
            start, end = 0, self.capacity
        for buffer, column in zip(self._columns, columns):
            buffer[start:end] = column
        self._size = end

    def sample(self) -> Tuple[np.ndarray, ...]:
        """The sample's ``(values, priorities)`` in ascending priority, then
        its labels when the reservoir is labelled."""
        order = np.argsort(self._columns[1][: self._size])[: self.capacity]
        return tuple(buffer[order] for buffer in self._columns)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sampled delays (NaN when empty)."""
        if not self._size:
            return float("nan")
        return float(np.percentile(self.sample()[0], q))

    def to_payload(self) -> dict:
        """The reservoir as plain data: its capacity, how many values it has
        seen, and the k sampled rows column by column — never the 2k buffer."""
        return {"capacity": self.capacity, "seen": self.seen, **dict(zip(_COLUMNS, self.sample()))}

    @classmethod
    def from_payload(cls, payload: dict) -> "DelayReservoir":
        """Rebuild a reservoir from :meth:`to_payload`."""
        reservoir = cls(int(payload["capacity"]), labelled=_COLUMNS[-1] in payload)
        reservoir.seen = int(payload["seen"])
        reservoir._offer(*(payload[name] for name in _COLUMNS if name in payload))
        return reservoir

    @classmethod
    def merge(cls, parts: Sequence["DelayReservoir"]) -> "DelayReservoir":
        """The reservoir of the concatenated streams: the k smallest
        priorities of the parts' union, whatever the parts' order."""
        if not parts:
            raise ConfigurationError("cannot merge zero reservoirs")
        merged = cls(parts[0].capacity, labelled=parts[0].labelled)
        for part in parts:
            if part.capacity != merged.capacity:
                raise ConfigurationError("cannot merge reservoirs of different capacities")
            merged.seen += part.seen
            merged._offer(*part.sample())
        return merged


#: The aggregator's additive fields: merging adds them, the payload carries
#: them as they are (int64 arrays or Python ints; delay sums in nanoseconds).
_SUMMED_ARRAYS = (
    "confusion", "windowed_confusion", "windowed_delay_sum", "layer_requests",
    "layer_delay_sum", "layer_anomalies", "layer_redirected",
)
_SUMMED_COUNTS = ("delay_sum", "online_device_ticks", "offline_device_ticks")
#: The prefix of the delay sample's fields in the aggregator's payload.
_RESERVOIR = "reservoir_"


class StreamingMetrics:
    """Incremental fleet-run aggregation (confusion, tiers, delays, uptime)."""

    def __init__(
        self, ticks: int, metrics_window: int, n_layers: int, reservoir_size: int
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
        self.windowed_delay_sum = np.zeros(self.n_metric_windows, dtype=np.int64)
        # Per-tier utilisation.
        self.layer_requests = np.zeros(self.n_layers, dtype=np.int64)
        self.layer_delay_sum = np.zeros(self.n_layers, dtype=np.int64)
        self.layer_anomalies = np.zeros(self.n_layers, dtype=np.int64)
        self.layer_redirected = np.zeros(self.n_layers, dtype=np.int64)
        # Delay stream.
        self.delay_sum = 0
        self.delay_max = 0.0
        self.reservoir = DelayReservoir(reservoir_size)
        # Fleet uptime.
        self.online_device_ticks = 0
        self.offline_device_ticks = 0

    @property
    def shape(self) -> Tuple[int, int, int, int]:
        """``(ticks, metrics_window, n_layers, reservoir capacity)``: what
        aggregators must share to merge, and a checkpoint to restore."""
        return (self.ticks, self.metrics_window, self.n_layers, self.reservoir.capacity)

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
        keys: np.ndarray,
        redirected: int = 0,
    ) -> None:
        """Fold one detected batch (a single layer within one tick) in.

        ``layer`` is the tier that actually *served* the batch;
        ``redirected`` counts how many of its windows were redirected there
        because their requested tier was unreachable (failover accounting).
        ``keys`` name the windows for the delay sample (:class:`DelayReservoir`).
        """
        if not 0 <= tick < self.ticks:
            raise ConfigurationError(f"tick must lie in [0, {self.ticks}), got {tick}")
        counts = confusion_counts(predictions, labels)
        delays_ms = np.asarray(delays_ms, dtype=float)
        delay_sum = int(delay_ns(delays_ms).sum())
        window = tick // self.metrics_window
        self.confusion += counts
        self.windowed_confusion[window] += counts
        self.windowed_delay_sum[window] += delay_sum
        self.layer_requests[layer] += counts.sum()
        self.layer_delay_sum[layer] += delay_sum
        self.layer_anomalies[layer] += counts[0] + counts[1]
        self.layer_redirected[layer] += int(redirected)
        self.delay_sum += delay_sum
        if delays_ms.size:
            self.delay_max = max(self.delay_max, float(delays_ms.max()))
        self.reservoir.extend(delays_ms, keys)

    # -- derived -----------------------------------------------------------------

    @property
    def n_windows(self) -> int:
        """Total number of windows evaluated so far."""
        return int(self.confusion.sum())

    # -- transport ---------------------------------------------------------------

    def to_payload(self) -> dict:
        """The aggregator's whole state as a compact, picklable dict.

        What a shard worker ships back and what a checkpoint stores: the
        count arrays, the delay sums and the reservoir's sample with its
        priorities.  No generator state exists to carry.
        """
        sample = self.reservoir.to_payload()
        return {
            "ticks": self.ticks,
            "metrics_window": self.metrics_window,
            "n_layers": self.n_layers,
            **{name: getattr(self, name) for name in _SUMMED_ARRAYS + _SUMMED_COUNTS},
            "delay_max": self.delay_max,
            **{f"{_RESERVOIR}{key}": value for key, value in sample.items()},
        }

    @classmethod
    def from_payload(
        cls, payload: dict, shape: Optional[Tuple[int, int, int, int]] = None
    ) -> "StreamingMetrics":
        """Rebuild an aggregator from :meth:`to_payload`.

        ``shape``, when given, is the :attr:`shape` the payload must have —
        a checkpoint written under another spec is refused.
        """
        metrics = cls(
            ticks=int(payload["ticks"]),
            metrics_window=int(payload["metrics_window"]),
            n_layers=int(payload["n_layers"]),
            reservoir_size=int(payload[f"{_RESERVOIR}capacity"]),
        )
        if shape is not None and metrics.shape != tuple(shape):
            raise ConfigurationError(
                "checkpointed metrics shape does not match this run — was the "
                "spec changed between checkpoint and resume?"
            )
        for name in _SUMMED_ARRAYS:
            setattr(metrics, name, np.array(payload[name], dtype=np.int64))
        for name in _SUMMED_COUNTS:
            setattr(metrics, name, int(payload[name]))
        metrics.delay_max = float(payload["delay_max"])
        metrics.reservoir = DelayReservoir.from_payload(
            {key[len(_RESERVOIR):]: value for key, value in payload.items()
             if key.startswith(_RESERVOIR)}
        )
        return metrics

    @classmethod
    def merge(cls, parts: Sequence["StreamingMetrics"]) -> "StreamingMetrics":
        """Fold per-shard aggregators into one (in any order: same result)."""
        if not parts:
            raise ConfigurationError("cannot merge zero metric aggregators")
        if any(part.shape != parts[0].shape for part in parts):
            raise ConfigurationError("cannot merge metric aggregators with different shapes")
        ticks, metrics_window, n_layers, capacity = parts[0].shape
        merged = cls(ticks, metrics_window, n_layers, capacity)
        for name in _SUMMED_ARRAYS + _SUMMED_COUNTS:
            setattr(merged, name, sum(getattr(part, name) for part in parts))
        merged.delay_max = max(part.delay_max for part in parts)
        merged.reservoir = DelayReservoir.merge([part.reservoir for part in parts])
        return merged


def delay_ns(delays_ms) -> np.ndarray:
    """Delays as int64 nanoseconds: each rounded once, so sums are exact.

    Integer sums are associative, so any grouping of batches, ticks, shards
    or tier completions adds up to the same bits.
    """
    return np.rint(np.asarray(delays_ms, dtype=float) * 1e6).astype(np.int64)


def mean_ms(total_ns, count: int) -> float:
    """The mean in milliseconds of ``count`` delays summing to ``total_ns``
    (0.0 when empty): one correctly rounded division of two integers."""
    return int(total_ns) / (int(count) * 1_000_000) if count else 0.0
