"""Workload generators: a fleet of heterogeneous virtual devices.

A :class:`DeviceFleet` turns the experiment's prepared (standardised) windows
into *live traffic*: each :class:`VirtualDevice` samples windows from a shared
:class:`WindowPool` — normal and anomalous pools cut from the synthetic
power/MHEALTH generators — and the fleet perturbs them through the configured
stream mutators, emitting one timestamped :class:`ColumnarArrivals` batch per
event-clock tick (:meth:`DeviceFleet.arrivals_columnar`, the only arrival
API).

Determinism is the load-bearing property: every device owns an RNG seeded
from ``(master seed, fleet seed, device id)``, so a device's stream is
bit-identical no matter which shard it lands on or how many other devices
exist.  That is what lets :class:`~repro.fleet.engine.ShardedFleetEngine`
partition the fleet across workers and still merge to the exact unsharded
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import LabeledWindows
from repro.exceptions import ConfigurationError
from repro.fleet import stream_cache
from repro.fleet.mutators import (
    AdversarialCamouflage,
    AnomalyBurst,
    ConceptDrift,
    CorrelatedDrift,
    DeviceChurn,
    PhaseJitter,
    SensorDropout,
    SensorSpike,
    SensorStuck,
    StreamMutator,
)
from repro.fleet.spec import FleetSpec
from repro.fleet.stream_cache import StreamChunk

#: Mask folding arbitrary (possibly negative) ints into SeedSequence entropy.
_SEED_MASK = 0xFFFFFFFF

#: Mutator types whose hooks are pure data the stream caches may snapshot.
_BUILTIN_MUTATORS = (
    StreamMutator,
    ConceptDrift,
    CorrelatedDrift,
    AnomalyBurst,
    DeviceChurn,
    PhaseJitter,
    SensorStuck,
    SensorSpike,
    SensorDropout,
    AdversarialCamouflage,
)


def device_rng(master_seed: int, fleet_seed: int, device_id: int) -> np.random.Generator:
    """The RNG owned by one device: a pure function of the three seeds."""
    entropy = (int(master_seed) & _SEED_MASK, int(fleet_seed) & _SEED_MASK, int(device_id))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _rng_from_state(state: dict) -> np.random.Generator:
    """A PCG64 generator restored to a captured ``bit_generator.state``."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@dataclass(frozen=True)
class ColumnarArrivals:
    """One tick's arrivals as parallel arrays (the struct-of-arrays view).

    Windows arrive pre-stacked (mutators applied) with labels, device ids and
    timestamps as aligned arrays, so the engine never builds or tears down
    per-window objects.  Arrays may be shared with the stream cache — treat
    them as read-only.
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

    @classmethod
    def from_labeled(cls, labeled: LabeledWindows) -> "WindowPool":
        """Split labelled (usually standardised) windows into the two pools."""
        windows = np.asarray(labeled.windows, dtype=float)
        labels = np.asarray(labeled.labels, dtype=int)
        return cls(normal=windows[labels == 0], anomalous=windows[labels == 1])


class VirtualDevice:
    """One simulated IoT device: its RNG stream, mutator states and class
    parameters.  The fleet draws every device's arrivals per tick."""

    def __init__(
        self,
        device_id: int,
        pool: WindowPool,
        mutators: Sequence[StreamMutator],
        spec: FleetSpec,
        master_seed: int = 0,
    ) -> None:
        self.device_id = int(device_id)
        self.spec = spec
        self._rng: Optional[np.random.Generator] = device_rng(
            master_seed, spec.seed, device_id
        )
        self._rng_state: Optional[dict] = None
        self._init_class_params()
        # Per-mutator device parameters, drawn from this device's own RNG in
        # mutator order (creation draws precede every emission draw).
        self.states = [
            mutator.device_state_for(self.device_id, self._rng, pool.window_shape)
            for mutator in mutators
        ]

    def _init_class_params(self) -> None:
        """Resolve this device's heterogeneous-class parameters from the spec.

        Pure spec lookups (no RNG), so they are re-derived identically when a
        device is rebuilt from a cached creation snapshot.
        """
        self.arrival_rate = self.spec.device_arrival_rate(self.device_id)
        self.base_anomaly_rate = self.spec.device_anomaly_rate(self.device_id)
        self.amp_scale, self.amp_offset = self.spec.device_amplitude(self.device_id)

    @classmethod
    def from_snapshot(
        cls,
        device_id: int,
        spec: FleetSpec,
        states: List[dict],
        rng_state: dict,
    ) -> "VirtualDevice":
        """Rebuild a device from cached creation draws (see the stream cache).

        ``rng_state`` is the bit-generator state captured right after the
        creation draws, so the restored emission stream is bit-identical to a
        freshly constructed device's.  The generator itself materialises
        lazily — a device whose whole stream comes from the cache never
        builds one.
        """
        device = cls.__new__(cls)
        device.device_id = int(device_id)
        device.spec = spec
        device._init_class_params()
        device.states = states
        device._rng = None
        device._rng_state = rng_state
        return device

    @property
    def rng(self) -> np.random.Generator:
        """The device's emission RNG (restored from a snapshot on demand)."""
        if self._rng is None:
            self._rng = _rng_from_state(self._rng_state)
        return self._rng

    def creation_snapshot(self) -> Tuple[dict, List[dict]]:
        """``(rng state, mutator states)`` right after the creation draws."""
        return self.rng.bit_generator.state, self.states


class DeviceFleet:
    """An ordered collection of virtual devices (optionally a shard subset).

    :meth:`arrivals_columnar` returns one tick's arrivals as a
    :class:`ColumnarArrivals`.  It may serve repeated runs of the same
    configuration from the module-level stream cache; call it with
    non-decreasing ticks starting at 0.
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
        ids = (
            list(range(spec.n_devices))
            if device_ids is None
            else [int(device_id) for device_id in device_ids]
        )
        mutators = spec.build_mutators()
        self.mutators = mutators
        self._cacheable = all(type(m) in _BUILTIN_MUTATORS for m in mutators)
        self._creation_key = (
            self.master_seed,
            spec,
            tuple(ids),
            pool.window_shape,
        ) if self._cacheable else None
        snapshots = (
            stream_cache.creation_snapshots(self._creation_key)
            if self._creation_key is not None
            else None
        )
        if snapshots is not None:
            self.devices = [
                VirtualDevice.from_snapshot(
                    device_id, spec, states=states, rng_state=rng_state
                )
                for device_id, (rng_state, states) in zip(ids, snapshots)
            ]
        else:
            self.devices = [
                VirtualDevice(device_id, pool, mutators, spec, master_seed=master_seed)
                for device_id in ids
            ]
            if self._creation_key is not None:
                stream_cache.store_creation_snapshots(
                    self._creation_key,
                    [device.creation_snapshot() for device in self.devices],
                )
        #: Next tick whose draws this instance must generate (ticks below this
        #: have consumed the device RNG streams; cache hits do not).
        self._next_gen_tick = 0
        self._columnar_setup_done = False

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def window_shape(self) -> Tuple[int, ...]:
        """Shape of one emitted window."""
        return self.pool.window_shape

    def _ensure_columnar_setup(self) -> None:
        if self._columnar_setup_done:
            return
        devices = self.devices
        mutators = self.mutators
        self._states_cols = [
            [device.states[position] for device in devices]
            for position in range(len(mutators))
        ]
        self._stacked = [
            mutator.stack_states(states)
            for mutator, states in zip(mutators, self._states_cols)
        ]
        # _generate_chunk visits only the mutators that override a hook: the
        # base hooks are no-ops, and transform_draw sits in the per-arrival
        # loop (its results are cached per window).
        def overriding(hook: str) -> List[Tuple[int, StreamMutator]]:
            base = getattr(StreamMutator, hook)
            return [
                (position, mutator)
                for position, mutator in enumerate(mutators)
                if getattr(type(mutator), hook) is not base
            ]

        self._online_mutators = overriding("online_batch")
        self._rate_mutators = overriding("anomaly_rate_batch")
        self._draw_mutators = overriding("transform_draw")
        self._id_array = np.fromiter(
            (device.device_id for device in devices), dtype=np.int64, count=len(devices)
        )
        # Heterogeneous-class parameters, resolved once per fleet.  Plain
        # Python float lists where the per-row value feeds an RNG call (the
        # recorded streams were drawn from exactly these Python floats).
        self._arrival_rates = [device.arrival_rate for device in devices]
        self._base_anomaly_rates = [device.base_anomaly_rate for device in devices]
        self._amp_scales = np.array(
            [device.amp_scale for device in devices], dtype=float
        )
        self._amp_offsets = np.array(
            [device.amp_offset for device in devices], dtype=float
        )
        self._has_amplitude = bool(
            np.any(self._amp_scales != 1.0) or np.any(self._amp_offsets != 0.0)
        )
        self._stream_key = (
            (*self._creation_key, self.pool.normal.shape[0], self.pool.anomalous.shape[0])
            if self._creation_key is not None
            else None
        )
        self._columnar_setup_done = True

    def arrivals_columnar(self, tick: int) -> ColumnarArrivals:
        """All arrivals for ``tick`` (device-id order) as a :class:`ColumnarArrivals`.

        Draws are collected as arrays, windows are gathered from the pool in
        one fancy-indexing pass, and mutators apply through their batch
        hooks.  Cached fleet configurations replay their draws from the
        stream cache without consuming any RNG.
        """
        tick = int(tick)
        self._ensure_columnar_setup()
        entry = (
            stream_cache.stream_entry(self._stream_key)
            if self._stream_key is not None
            else None
        )
        if entry is None:
            if tick != self._next_gen_tick:
                raise ConfigurationError(
                    f"uncached columnar arrivals must be drawn sequentially from "
                    f"tick 0 (expected tick {self._next_gen_tick}, got {tick})"
                )
            chunk = self._generate_chunk(tick)
            self._next_gen_tick += 1
        else:
            chunk = entry.chunks.get(tick)
            if chunk is None:
                if tick < self._next_gen_tick:  # pragma: no cover - re-request
                    raise ConfigurationError(
                        f"tick {tick} is behind this fleet's stream cursor and "
                        "not cached (evicted or beyond the cache budget); "
                        "re-create the fleet to replay from tick 0"
                    )
                # Devices whose earlier ticks were cache hits have virgin RNG
                # streams, so generation can always replay from the cursor.
                # store() may decline chunks beyond the entry's memory budget,
                # so the freshly generated chunk is used directly.
                while self._next_gen_tick <= tick:
                    pending = self._next_gen_tick
                    chunk = self._generate_chunk(pending)
                    entry.store(pending, chunk)
                    self._next_gen_tick += 1
        return self._assemble(chunk, tick)

    def _empty_columnar(self, online: int) -> ColumnarArrivals:
        return ColumnarArrivals(
            windows=np.empty((0, *self.pool.window_shape)),
            labels=np.empty(0, dtype=np.int64),
            device_ids=np.empty(0, dtype=np.int64),
            timestamps=np.empty(0, dtype=float),
            online=online,
        )

    def _generate_chunk(self, tick: int) -> StreamChunk:
        """Draw one tick's arrivals from the device RNG streams.

        The draw order per device is the stream's definition (the goldens
        pin it): one Poisson count, then per arrival the anomaly uniform, the
        pool index, any mutator transform draws (in mutator order), and the
        timestamp offset.  Devices are visited in fleet order.
        """
        devices = self.devices
        n_devices = len(devices)
        mask: Optional[np.ndarray] = None
        for position, mutator in self._online_mutators:
            sub = mutator.online_batch(
                self._stacked[position], self._states_cols[position], tick
            )
            mask = sub if mask is None else mask & sub
        if mask is None:
            online_rows = range(n_devices)
            online = n_devices
        else:
            online_rows = np.flatnonzero(mask).tolist()
            online = len(online_rows)

        base_rates = self._base_anomaly_rates
        rates_list = None
        if self._rate_mutators:
            rates = np.array(base_rates, dtype=float)
            for position, mutator in self._rate_mutators:
                rates = mutator.anomaly_rate_batch(
                    rates, self._stacked[position], self._states_cols[position], tick
                )
            rates_list = np.asarray(rates, dtype=float).tolist()

        arrival_rates = self._arrival_rates
        rate_multiplier = self.spec.rate_multiplier(tick)
        n_normal = self.pool.normal.shape[0]
        n_anomalous = self.pool.anomalous.shape[0]
        has_anomalies = n_anomalous > 0
        drawing = self._draw_mutators
        draws: Dict[int, List] = {position: [] for position, _ in drawing}
        rows: List[int] = []
        flags: List[bool] = []
        indices: List[int] = []
        stamps: List[float] = []
        for row in online_rows:
            device = devices[row]
            rng = device.rng
            count = rng.poisson(arrival_rates[row] * rate_multiplier)
            if not count:
                continue
            rate = rates_list[row] if rates_list is not None else base_rates[row]
            random = rng.random
            integers = rng.integers
            states = device.states
            for _ in range(count):
                anomalous = (random() < rate) and has_anomalies
                index = integers(n_anomalous) if anomalous else integers(n_normal)
                for position, mutator in drawing:
                    draws[position].append(mutator.transform_draw(states[position], rng))
                stamps.append(tick + random())
                rows.append(row)
                flags.append(anomalous)
                indices.append(index)
        return StreamChunk(
            rows=np.array(rows, dtype=np.int64),
            anomalous=np.array(flags, dtype=bool),
            pool_indices=np.array(indices, dtype=np.int64),
            timestamps=np.array(stamps, dtype=float),
            draws=draws,
            online=online,
        )

    def _assemble(self, chunk: StreamChunk, tick: int) -> ColumnarArrivals:
        """Gather the chunk's pool windows and apply the batch transforms."""
        n = chunk.rows.shape[0]
        if n == 0:
            return self._empty_columnar(chunk.online)
        pool = self.pool
        anomalous = chunk.anomalous
        if not anomalous.any():
            windows = pool.normal[chunk.pool_indices]
        elif anomalous.all():
            windows = pool.anomalous[chunk.pool_indices]
        else:
            windows = np.empty((n, *pool.window_shape))
            normal = ~anomalous
            windows[normal] = pool.normal[chunk.pool_indices[normal]]
            windows[anomalous] = pool.anomalous[chunk.pool_indices[anomalous]]
        for position, mutator in enumerate(self.mutators):
            windows = mutator.transform_batch(
                windows,
                self._stacked[position],
                chunk.rows,
                tick,
                chunk.draws.get(position),
            )
        if self._has_amplitude:
            # The class amplitude affine runs after all mutators and draws
            # no RNG: per window w*scale+offset, skipped for identity classes.
            scales = self._amp_scales[chunk.rows]
            offsets = self._amp_offsets[chunk.rows]
            affected = (scales != 1.0) | (offsets != 0.0)
            if affected.any():
                shape = (-1,) + (1,) * (windows.ndim - 1)
                windows[affected] = (
                    windows[affected] * scales[affected].reshape(shape)
                    + offsets[affected].reshape(shape)
                )
        return ColumnarArrivals(
            windows=windows,
            labels=anomalous.astype(np.int64),
            device_ids=self._id_array[chunk.rows],
            timestamps=chunk.timestamps,
            online=chunk.online,
        )
