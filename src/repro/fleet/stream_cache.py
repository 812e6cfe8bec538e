"""Bounded caches behind :meth:`DeviceFleet.arrivals_columnar`.

Two module-level caches make repeated streaming of the *same seeded
workload* — benchmark repeats, serial shard sweeps re-running a scenario in
one process — nearly free without touching determinism:

* the **creation cache** stores, per fleet configuration, each device's
  mutator states and the RNG state *after* the creation draws, so a fresh
  :class:`~repro.fleet.devices.DeviceFleet` can restore its devices instead
  of re-deriving 1000 generators from seed material;
* the **stream cache** stores, per fleet configuration, the per-tick
  columnar arrival draws (device rows, anomaly flags, pool indices,
  timestamps, per-window mutator draws).  The cached values *are* the values
  the per-device RNG streams produce, so a cache hit is bit-identical to
  regeneration by construction — only the window gather + mutator batch
  transforms run per call.

Both caches hold pure data derived deterministically from ``(master seed,
fleet spec, device ids, pool shape/sizes)``; the cached window *indices* are
independent of the pool contents, so two experiments sharing a spec but not
a pool still share a stream.  Entries are evicted LRU beyond a small bound,
and only fleets whose mutators are all built-ins participate (a custom
:class:`~repro.fleet.mutators.StreamMutator` subclass could close over
mutable state the cache cannot see).  Cached and uncached streams are pinned
to the same recorded goldens (``tests/goldens/fleet/arrivals-*.npz``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Maximum cached fleet configurations per cache (LRU beyond this).
CREATION_CACHE_LIMIT = 8
STREAM_CACHE_LIMIT = 4
#: Maximum arrivals cached per stream entry.  Ticks beyond this budget are
#: generated without caching (the fleet's cursor discipline regenerates them
#: linearly on replay), so a long run degrades to uncached speed past the cap
#: instead of pinning an unbounded per-tick chunk list in memory.
STREAM_CACHE_MAX_ARRIVALS = 250_000

_creation_cache: "OrderedDict[tuple, list]" = OrderedDict()
_stream_cache: "OrderedDict[tuple, StreamCacheEntry]" = OrderedDict()
_enabled = True


@dataclass
class StreamChunk:
    """One tick's arrival draws in columnar form (windows not materialised)."""

    #: Fleet-position (not device-id) of each arrival's device, arrival order.
    rows: np.ndarray
    #: Whether each arrival sampled the anomalous pool.
    anomalous: np.ndarray
    #: Index of the sampled window inside its (normal or anomalous) pool.
    pool_indices: np.ndarray
    #: Simulated emission times (``tick`` plus the in-tick offset draw).
    timestamps: np.ndarray
    #: Per-mutator ``transform_draw`` results, keyed by mutator position.
    draws: Dict[int, List]
    #: Number of online devices at this tick.
    online: int


@dataclass
class StreamCacheEntry:
    """Per-tick chunks generated so far for one fleet configuration."""

    chunks: Dict[int, StreamChunk] = field(default_factory=dict)
    #: Total arrivals across the cached chunks (bounds the entry's memory).
    cached_arrivals: int = 0

    def store(self, tick: int, chunk: StreamChunk) -> None:
        """Cache ``chunk`` for ``tick`` if the entry's budget allows it."""
        arrivals = int(chunk.rows.shape[0])
        if tick in self.chunks:
            # Replay regeneration overwrites with identical data; no growth.
            self.chunks[tick] = chunk
            return
        if self.cached_arrivals + arrivals > STREAM_CACHE_MAX_ARRIVALS:
            return
        self.chunks[tick] = chunk
        self.cached_arrivals += arrivals


def enabled() -> bool:
    """Whether the caches are currently consulted."""
    return _enabled


def set_enabled(value: bool) -> bool:
    """Enable/disable both caches (for tests); returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous


def clear() -> None:
    """Drop every cached entry (for tests and memory-sensitive callers)."""
    _creation_cache.clear()
    _stream_cache.clear()


def _get(cache: OrderedDict, key: tuple):
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
    return entry


def _put(cache: OrderedDict, key: tuple, value, limit: int) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > limit:
        cache.popitem(last=False)


def creation_snapshots(key: tuple) -> Optional[list]:
    """Cached per-device ``(rng_state, states)`` snapshots, if any."""
    if not _enabled:
        return None
    return _get(_creation_cache, key)


def store_creation_snapshots(key: tuple, snapshots: list) -> None:
    """Cache per-device creation snapshots for ``key``."""
    if _enabled:
        _put(_creation_cache, key, snapshots, CREATION_CACHE_LIMIT)


def stream_entry(key: tuple) -> Optional[StreamCacheEntry]:
    """The (mutable) stream-cache entry for ``key``, created on first use."""
    if not _enabled:
        return None
    entry = _get(_stream_cache, key)
    if entry is None:
        entry = StreamCacheEntry()
        _put(_stream_cache, key, entry, STREAM_CACHE_LIMIT)
    return entry


def cache_stats() -> Tuple[int, int]:
    """(creation entries, stream entries) — introspection for tests."""
    return len(_creation_cache), len(_stream_cache)
