"""Workload generators: a fleet of heterogeneous virtual devices.

A :class:`DeviceFleet` turns the experiment's prepared (standardised) windows
into *live traffic*: every device samples windows from a shared
:class:`WindowPool` — normal and anomalous pools cut from the synthetic
power/MHEALTH generators — and the fleet perturbs them through the configured
stream mutators, emitting one timestamped :class:`ColumnarArrivals` batch per
event-clock tick (:meth:`DeviceFleet.arrivals_columnar`, the only arrival
API).

The stream is a pure function of ``(master seed, fleet seed, device-id block,
tick, draw purpose)``.  There is no per-device generator and no stream state:
every draw comes from a counter-based Philox generator keyed by the two seeds
whose counter words name a block of :data:`BLOCK_DEVICES` consecutive device
ids, the tick (or the creation draws) and what the draw is for, so one tick
is a handful of array calls per block and any tick can be drawn without the
ticks before it.  A fleet holding a subset of the ids (a shard) draws the
blocks it overlaps and keeps its own devices' rows — exactly the rows the
whole fleet emits for them.  That is what lets a multi-shard run
(:mod:`repro.fleet.sharding`) partition the fleet across workers and still
merge to the exact one-shard result, and what makes a checkpoint resume O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import LabeledWindows
from repro.exceptions import ConfigurationError
from repro.fleet.mutators import StreamMutator
from repro.fleet.spec import FleetSpec

#: Consecutive device ids drawn by one generator.  A constant, not a
#: parameter: the block is part of the stream's definition (another size is
#: another stream), and a block this wide keeps a thousand-device tick at one
#: array call per purpose while a shard never draws more than one block past
#: its own devices.
BLOCK_DEVICES = 1024

#: Seeds fold into the 64-bit Philox key words (negative seeds included).
_WORD_MASK = 0xFFFFFFFFFFFFFFFF

#: Tick of the creation draws: the tick counter word is ``tick + 1``, so the
#: creation draws own word 0.
_CREATION = -1

# Purpose counter words.  Mutator ``position`` draws (creation and per
# window) under ``_MUTATOR + position``, so adding a mutator never moves
# another's draws, nor the counts, flags, pool indices or timestamps.
_COUNTS, _ANOMALY, _POOL_INDEX, _TIMESTAMP, _MUTATOR = range(5)


@dataclass(frozen=True)
class ColumnarArrivals:
    """One tick's arrivals as parallel arrays (the struct-of-arrays view).

    Windows arrive pre-stacked (mutators applied) with labels, device ids and
    timestamps as aligned arrays, so the engine never builds or tears down
    per-window objects.  Every batch owns its arrays.
    """

    #: ``(n, *window_shape)`` float64 stack, mutators applied, arrival order.
    windows: np.ndarray
    #: ``(n,)`` int64 labels (1 = drawn from the anomalous pool).
    labels: np.ndarray
    #: ``(n,)`` int64 emitting-device ids.
    device_ids: np.ndarray
    #: ``(n,)`` float64 simulated emission times (``tick`` plus an in-tick offset).
    timestamps: np.ndarray
    #: Number of online devices at this tick.
    online: int

    @property
    def n(self) -> int:
        """Number of arrivals."""
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class WindowPool:
    """The normal/anomalous window pools every device samples from."""

    normal: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self) -> None:
        if self.normal.shape[0] == 0:
            raise ConfigurationError("a window pool needs at least one normal window")
        if (
            self.anomalous.shape[0]
            and self.anomalous.shape[1:] != self.normal.shape[1:]
        ):
            raise ConfigurationError(
                f"normal windows {self.normal.shape[1:]} and anomalous windows "
                f"{self.anomalous.shape[1:]} must share one shape"
            )

    @property
    def window_shape(self) -> Tuple[int, ...]:
        """Shape of one window."""
        return tuple(self.normal.shape[1:])

    @cached_property
    def stacked(self) -> np.ndarray:
        """The normal windows followed by the anomalous ones, as one array
        (so a tick's mixed draw is a single gather)."""
        if not self.anomalous.shape[0]:
            return self.normal
        return np.concatenate([self.normal, self.anomalous])

    @classmethod
    def from_labeled(cls, labeled: LabeledWindows) -> "WindowPool":
        """Split labelled (usually standardised) windows into the two pools."""
        windows = np.asarray(labeled.windows, dtype=float)
        labels = np.asarray(labeled.labels, dtype=int)
        return cls(normal=windows[labels == 0], anomalous=windows[labels == 1])


class _Block(NamedTuple):
    """What a fleet keeps per overlapped block of device ids."""

    index: int
    #: ``(block devices,)`` Poisson arrival rates of *every* device of the
    #: block — the counts are drawn block-wide, whoever is in this fleet.
    arrival_rates: np.ndarray
    #: ``(block devices,)`` position in this fleet of each device of the
    #: block, ``-1`` for devices the fleet does not hold.
    position: np.ndarray


def _concatenate(parts: List[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class DeviceFleet:
    """The devices ``device_ids`` of a fleet (all of them by default).

    :meth:`arrivals_columnar` returns one tick's arrivals as a
    :class:`ColumnarArrivals`, in device-id order; ticks may be drawn in any
    order, any number of times.  ``device_ids`` must be one or more strictly
    increasing ids below ``spec.n_devices``.
    """

    def __init__(
        self,
        spec: FleetSpec,
        pool: WindowPool,
        master_seed: int = 0,
        device_ids: Optional[Sequence[int]] = None,
    ) -> None:
        self.spec = spec
        self.pool = pool
        self.master_seed = int(master_seed)
        self.mutators = spec.build_mutators()
        #: Places of the mutators that draw per window (the others cost no
        #: generator per tick).
        self._drawing = [
            place
            for place, mutator in enumerate(self.mutators)
            if type(mutator).draw_batch is not StreamMutator.draw_batch
        ]
        if device_ids is None:
            ids = np.arange(spec.n_devices, dtype=np.int64)
        else:
            ids = np.asarray(device_ids, dtype=np.int64).reshape(-1)
            if (
                not ids.size
                or ids[0] < 0
                or ids[-1] >= spec.n_devices
                or np.any(np.diff(ids) <= 0)
            ):
                raise ConfigurationError(
                    f"device_ids must be one or more strictly increasing ids in "
                    f"[0, {spec.n_devices}), got {ids.tolist()}"
                )
        self._ids = ids
        # One generator, repositioned for every draw (a tenth of the cost of
        # building a Philox per draw, which is most of a small tick).
        self._philox = np.random.Philox(
            key=np.array(
                (self.master_seed & _WORD_MASK, spec.seed & _WORD_MASK), dtype=np.uint64
            )
        )
        self._generator = np.random.Generator(self._philox)
        self._origin = self._philox.state
        self._blocks: List[_Block] = []
        created: List[list] = [[] for _ in self.mutators]
        for index in np.unique(ids // BLOCK_DEVICES).tolist():
            start = index * BLOCK_DEVICES
            block_ids = np.arange(start, min(start + BLOCK_DEVICES, spec.n_devices))
            low, high = np.searchsorted(ids, (start, start + BLOCK_DEVICES))
            local = ids[low:high] - start
            position = np.full(block_ids.size, -1, dtype=np.int64)
            position[local] = np.arange(low, high)
            self._blocks.append(
                _Block(index, spec.class_columns(block_ids)[0], position)
            )
            # Creation draws cover the whole block; the fleet keeps its rows.
            for place, mutator in enumerate(self.mutators):
                states = mutator.create_batch(
                    self._rng(index, _CREATION, _MUTATOR + place),
                    block_ids,
                    pool.window_shape,
                )
                if states is not None:
                    created[place].append(
                        {name: column[local] for name, column in states.items()}
                    )
        #: Per mutator, its columnar device states over this fleet's devices.
        self._states: List[Optional[Dict[str, np.ndarray]]] = [
            {name: _concatenate([part[name] for part in parts]) for name in parts[0]}
            if parts
            else None
            for parts in created
        ]
        _, self._anomaly_rates, scales, offsets = spec.class_columns(ids)
        #: ``(scales, offsets)`` of the class amplitude affine, ``None`` when
        #: every class is the identity.
        self._amplitude = (
            (scales, offsets)
            if np.any(scales != 1.0) or np.any(offsets != 0.0)
            else None
        )

    def __len__(self) -> int:
        return int(self._ids.size)

    def _rng(self, block: int, tick: int, purpose: int) -> np.random.Generator:
        """The generator of one draw: keyed by the seeds, positioned at the
        counter words ``(running counter, tick + 1, purpose, block)`` with an
        empty output buffer — what ``Philox(key=..., counter=...)`` starts
        as.  It is the fleet's one generator: draw before the next call."""
        state = self._origin
        state["state"]["counter"] = np.array(
            (0, tick + 1, purpose, block), dtype=np.uint64
        )
        self._philox.state = state
        return self._generator

    def _draw_block(
        self, block: _Block, tick: int, online: Optional[np.ndarray]
    ) -> List[Optional[np.ndarray]]:
        """One block's per-arrival columns at ``tick``, this fleet's online
        devices only: fleet rows, the anomaly, pool-index and timestamp
        uniforms, then the draws of each drawing mutator.

        Every column is drawn for the whole block — offline and foreign
        devices included — and only then filtered, so neither the
        partitioning nor a mutator changes what any other draw reads.
        """
        index = block.index
        counts = self._rng(index, tick, _COUNTS).poisson(
            block.arrival_rates * self.spec.rate_multiplier(tick)
        )
        n = int(counts.sum())
        rows = np.repeat(block.position, counts)
        columns = [rows] + [
            self._rng(index, tick, purpose).random(n)
            for purpose in (_ANOMALY, _POOL_INDEX, _TIMESTAMP)
        ]
        for place in self._drawing:
            columns.append(
                self.mutators[place].draw_batch(
                    self._rng(index, tick, _MUTATOR + place), n, self.pool.window_shape
                )
            )
        keep = rows >= 0
        if online is not None:
            keep[keep] = online[rows[keep]]
        if keep.all():
            return columns
        return [None if column is None else column[keep] for column in columns]

    def arrivals_columnar(self, tick: int) -> ColumnarArrivals:
        """All arrivals for ``tick`` (device-id order) as a :class:`ColumnarArrivals`.

        Per block: one Poisson count per device, then per arrival an anomaly
        uniform, a pool-index uniform, a timestamp offset and each drawing
        mutator's window draws; the windows are gathered from the pool in one
        pass and the mutators transform the tick's stacked batch.
        """
        tick = int(tick)
        mutators = self.mutators
        online: Optional[np.ndarray] = None
        anomaly_rates = self._anomaly_rates
        for mutator, states in zip(mutators, self._states):
            mask = mutator.online_batch(states, tick)
            if mask is not None:
                online = mask if online is None else online & mask
            anomaly_rates = mutator.anomaly_rate_batch(anomaly_rates, states, tick)
        n_online = len(self) if online is None else int(np.count_nonzero(online))

        blocks = [self._draw_block(block, tick, online) for block in self._blocks]
        if not any(columns[0].size for columns in blocks):
            return ColumnarArrivals(
                windows=np.empty((0, *self.pool.window_shape)),
                labels=np.empty(0, dtype=np.int64),
                device_ids=np.empty(0, dtype=np.int64),
                timestamps=np.empty(0, dtype=float),
                online=n_online,
            )
        rows, anomaly_draw, index_draw, offsets, *draws = (
            None if parts[0] is None else _concatenate(parts) for parts in zip(*blocks)
        )

        pool = self.pool
        n_normal = pool.normal.shape[0]
        n_anomalous = pool.anomalous.shape[0]
        anomalous = (
            anomaly_draw < np.asarray(anomaly_rates, dtype=float)[rows]
            if n_anomalous
            else np.zeros(rows.size, dtype=bool)
        )
        # Uniform index into the drawn pool; anomalous windows sit after the
        # normal ones in the stacked pool.
        indices = (index_draw * np.where(anomalous, n_anomalous, n_normal)).astype(
            np.int64
        )
        windows = pool.stacked[indices + anomalous * n_normal]
        draws_of = dict(zip(self._drawing, draws))
        for place, (mutator, states) in enumerate(zip(mutators, self._states)):
            windows = mutator.transform_batch(
                windows, states, rows, tick, draws_of.get(place)
            )
        if self._amplitude is not None:
            # The class amplitude affine runs after all mutators and draws
            # no RNG: per window w*scale+offset, skipped for identity classes.
            scales = self._amplitude[0][rows]
            shifts = self._amplitude[1][rows]
            affected = (scales != 1.0) | (shifts != 0.0)
            if affected.any():
                broadcast = (-1,) + (1,) * (windows.ndim - 1)
                windows[affected] = (
                    windows[affected] * scales[affected].reshape(broadcast)
                    + shifts[affected].reshape(broadcast)
                )
        return ColumnarArrivals(
            windows=windows,
            labels=anomalous.astype(np.int64),
            device_ids=self._ids[rows],
            timestamps=tick + offsets,
            online=n_online,
        )
