"""Cheap sharded execution: persistent pools and zero-copy shard payloads.

The original sharded path forked a fresh worker pool per ``run()`` and
pickled the full engine state — detector weights *and* the window pool,
easily tens of megabytes — into every shard, every run, then pickled whole
:class:`~repro.fleet.metrics.StreamingMetrics` objects back.  On small or
single-core hosts that overhead dwarfed the per-shard compute (the committed
``fleet.json`` showed 2- and 4-shard runs at 0.60×/0.57× of one shard).

This module replaces that with:

* a **persistent worker-pool cache** — one ``fork`` pool per shard count,
  reused across :meth:`~repro.fleet.engine.ShardedFleetEngine.run` calls and
  re-forked only when the published engine state changes;
* **zero-copy heavy state** — the shared engine kwargs (system, policy,
  context extractor, window pool, spec) are *published* into a module-level
  table before the pool forks, so workers inherit them through
  copy-on-write; a shard task ships only ``(token, device_ids)``;
* **compact result payloads** — workers return
  :meth:`~repro.fleet.metrics.StreamingMetrics.to_payload` arrays (a few KB)
  instead of pickled aggregator objects.

Where ``fork`` is unavailable (spawn-only platforms) the window pool — the
bulk of the payload — ships once per run through
:class:`multiprocessing.shared_memory.SharedMemory` segments and only the
model state pickles per shard.

Tokens are unique for the process lifetime, so a pool forked against an old
published table can never resolve a new token — the cache detects that and
re-forks (object identity alone would be unsound: ids can be reused after
garbage collection).  Published state is a *snapshot*: the structural key
includes :attr:`~repro.hec.simulation.HECSystem.state_version`, which
hot-swap deployments bump, so an adaptive run between two sharded runs
re-keys (and re-forks) automatically; if you mutate published objects in
place through some *other* side channel, call :func:`invalidate` before the
next sharded run.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import signal
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.faults import WorkerCrash

#: Published heavy-state entries kept alive (LRU beyond this).
PUBLISH_LIMIT = 4

#: token -> shared engine kwargs (strong refs keep ids unique while published).
_TOKENS: "OrderedDict[int, dict]" = OrderedDict()
#: structural key -> token (scanned on eviction; bounded by PUBLISH_LIMIT).
_KEYS: Dict[tuple, int] = {}
_token_counter = itertools.count(1)


@dataclass
class _PoolEntry:
    pool: multiprocessing.pool.Pool
    #: Tokens that existed when this pool forked (resolvable in its workers).
    tokens: frozenset


_POOLS: Dict[int, _PoolEntry] = {}


def available_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether the zero-copy ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def parallel_transport() -> str:
    """The worker-pool transport :func:`run_sharded` would use here.

    ``"fork-pool"`` (persistent pool + copy-on-write state) where fork
    exists, ``"spawn-pool"`` (per-run pool + SharedMemory window shipping)
    elsewhere — the label benchmarks record per shard entry.
    """
    return "fork-pool" if fork_available() else "spawn-pool"


def _structural_key(heavy: dict) -> tuple:
    return (
        id(heavy["system"]),
        # Hot-swaps mutate the system in place; the version stamp makes the
        # post-swap system a new key, so a pool forked before the swap can
        # never serve its stale copy-on-write weights.
        getattr(heavy["system"], "state_version", 0),
        id(heavy["policy"]),
        id(heavy["context_extractor"]),
        id(heavy["pool"]),
        heavy["spec"],
        heavy["master_seed"],
        heavy["name"],
        heavy["tier_names"],
        # FaultSpec is frozen (hashable); different fault schedules or
        # checkpoint configurations must never share a forked snapshot.
        heavy.get("faults"),
        heavy.get("checkpoint_dir"),
        heavy.get("checkpoint_cadence", 0),
        # ShardObsConfig is frozen too: a telemetered run and an
        # untelemetered one must never share a forked snapshot (the child
        # sessions are built inside the worker from this recipe).
        heavy.get("obs"),
    )


def _publish(heavy: dict) -> int:
    """Register the shared engine kwargs; returns their (stable) token."""
    key = _structural_key(heavy)
    token = _KEYS.get(key)
    if token is not None and token in _TOKENS:
        _TOKENS.move_to_end(token)
        return token
    token = next(_token_counter)
    _KEYS[key] = token
    _TOKENS[token] = heavy
    while len(_TOKENS) > PUBLISH_LIMIT:
        stale, _ = _TOKENS.popitem(last=False)
        for stale_key, stale_token in list(_KEYS.items()):
            if stale_token == stale:
                del _KEYS[stale_key]
    return token


def invalidate() -> None:
    """Forget all published state (next sharded run re-publishes and re-forks).

    Call after mutating a published system/policy/pool in place outside the
    engine APIs — forked workers hold a copy-on-write snapshot from
    publication time and would otherwise stream against stale state.
    """
    _TOKENS.clear()
    _KEYS.clear()


def _pool_for(processes: int, token: int) -> multiprocessing.pool.Pool:
    entry = _POOLS.get(processes)
    if entry is not None and token in entry.tokens:
        return entry.pool
    if entry is not None:
        entry.pool.terminate()
        entry.pool.join()
    context = multiprocessing.get_context("fork")
    # Workers must die on Pool.terminate()'s SIGTERM: reset the parent's
    # inherited cleanup handler (see _install_signal_cleanup), which would
    # otherwise run shutdown() inside the worker and can leave it blocked on
    # a pool lock the parent never releases — hanging the parent's join().
    pool = context.Pool(
        processes=processes,
        initializer=signal.signal,
        initargs=(signal.SIGTERM, signal.SIG_DFL),
    )
    _POOLS[processes] = _PoolEntry(pool=pool, tokens=frozenset(_TOKENS))
    return pool


def _drop_pool(processes: int) -> None:
    entry = _POOLS.pop(processes, None)
    if entry is not None:
        entry.pool.terminate()
        entry.pool.join()


#: SharedMemory segments exported by this process and not yet unlinked.
_ACTIVE_SEGMENTS: List = []


def shutdown() -> None:
    """Terminate every cached pool, unlink exported SharedMemory segments and
    forget published state (tests/atexit/SIGTERM)."""
    for processes in list(_POOLS):
        _drop_pool(processes)
    for segment in list(_ACTIVE_SEGMENTS):
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass
    _ACTIVE_SEGMENTS.clear()
    invalidate()


atexit.register(shutdown)

_signal_cleanup_installed = False


def _install_signal_cleanup() -> None:
    """Make SIGTERM run :func:`shutdown` before dying (once, main thread only).

    atexit does not run on SIGTERM's default disposition, so a terminated
    parent would orphan live fork workers and leak SharedMemory segments.
    The handler cleans up, then re-raises SIGTERM under the default
    disposition so the process still dies with the conventional exit status.
    """
    global _signal_cleanup_installed
    if _signal_cleanup_installed:
        return
    if threading.current_thread() is not threading.main_thread():
        return  # signal.signal raises off the main thread; workers skip it
    previous = signal.getsignal(signal.SIGTERM)

    def _handle(signum, frame):
        shutdown()
        if callable(previous) and previous not in (signal.SIG_IGN, signal.SIG_DFL):
            previous(signum, frame)
        else:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

    try:
        signal.signal(signal.SIGTERM, _handle)
    except (ValueError, OSError):  # pragma: no cover - exotic embedding
        return
    _signal_cleanup_installed = True


@dataclass
class ShardResult:
    """One shard's compact return: metrics arrays plus telemetry payload.

    ``obs`` is ``None`` on untelemetered runs, else the child session's
    :meth:`~repro.obs.export.Telemetry.shard_payload` for the parent to
    absorb through the deterministic merge algebra.
    """

    metrics: object
    obs: Optional[dict] = None


def shard_child_telemetry(kwargs: dict, shard_index: int):
    """Pop the shard-telemetry recipe (if any) and build the child session."""
    config = kwargs.pop("obs", None)
    if config is None:
        return None
    child = config.child(shard_index)
    kwargs["telemetry"] = child
    return child


def _worker_run_shard(task: Tuple[int, int, List[int]]) -> dict:
    """Fork-pool entry point: resolve inherited state, stream, return arrays."""
    token, shard_index, device_ids = task
    heavy = _TOKENS[token]
    from repro.fleet.checkpoint import shard_checkpoint_dir
    from repro.fleet.engine import FleetEngine

    kwargs = dict(heavy)
    base = kwargs.get("checkpoint_dir")
    if base:
        kwargs["checkpoint_dir"] = shard_checkpoint_dir(base, shard_index)
    kwargs["shard_index"] = shard_index
    child = shard_child_telemetry(kwargs, shard_index)
    engine = FleetEngine(device_ids=device_ids, **kwargs)
    metrics = engine.run_metrics().to_payload()
    return {
        "metrics": metrics,
        "obs": child.shard_payload() if child is not None else None,
    }


def run_sharded(heavy: dict, partitions: Sequence[Sequence[int]], processes: int) -> list:
    """Run one :class:`~repro.fleet.engine.FleetEngine` per partition in the pool.

    Returns, in partition order, per-shard :class:`ShardResult` (metrics plus
    the child telemetry payload on telemetered runs) — or the
    :class:`~repro.fleet.faults.WorkerCrash` a shard died with (an *injected*
    crash is an application event, not a pool failure: the worker survives
    and the caller recovers the shard from its checkpoints).  Anything else
    raises after dropping the pool — the caller
    (``ShardedFleetEngine._run_shards``) owns the serial fallback, and a
    ``KeyboardInterrupt``/``SystemExit`` mid-run must not leave a cached pool
    of orphaned workers behind.
    """
    _install_signal_cleanup()
    if fork_available():
        token = _publish(heavy)
        pool = _pool_for(processes, token)
        tasks = [
            (token, index, list(partition))
            for index, partition in enumerate(partitions)
        ]
        results = []
        try:
            handles = [pool.apply_async(_worker_run_shard, (task,)) for task in tasks]
            for handle in handles:
                try:
                    results.append(handle.get())
                except WorkerCrash as crash:
                    results.append(crash)
        except BaseException:
            # A broken pool (dead worker, torn-down queue) must not be
            # reused; on KeyboardInterrupt this also reaps the workers.
            _drop_pool(processes)
            raise
        return _revive_results(results)
    return _run_sharded_spawn(heavy, partitions, processes)


def _revive_results(results: list) -> list:
    """Turn worker payload dicts back into :class:`ShardResult` objects."""
    from repro.fleet.metrics import StreamingMetrics

    revived = []
    for result in results:
        if isinstance(result, WorkerCrash):
            revived.append(result)
        else:
            revived.append(
                ShardResult(
                    metrics=StreamingMetrics.from_payload(result["metrics"]),
                    obs=result.get("obs"),
                )
            )
    return revived


# -- spawn fallback: the window pool ships once through SharedMemory ------------


@dataclass(frozen=True)
class SharedArraySpec:
    """How to re-attach one exported array in another process."""

    name: str
    shape: tuple
    dtype: str


def export_array(array: np.ndarray):
    """Copy ``array`` into a SharedMemory segment; returns ``(shm, spec)``."""
    from multiprocessing import shared_memory

    array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    _ACTIVE_SEGMENTS.append(segment)
    return segment, SharedArraySpec(
        name=segment.name, shape=tuple(array.shape), dtype=str(array.dtype)
    )


def attach_array(spec: SharedArraySpec, untrack: bool = False):
    """Attach an exported array; returns ``(shm, read-only ndarray view)``.

    On POSIX Pythons before 3.13, *attaching* also registers the segment with
    the attaching process's resource tracker, which would try to unlink it
    again at exit even though the exporter owns unlinking.  Worker processes
    therefore pass ``untrack=True`` to withdraw that registration (via
    ``track=False`` where supported, else an explicit unregister).  Leave it
    off when attaching inside the exporting process — exporter and attacher
    share one tracker there, and untracking would orphan the exporter's own
    registration.
    """
    from multiprocessing import shared_memory

    if untrack:
        try:
            segment = shared_memory.SharedMemory(
                name=spec.name, create=False, track=False
            )
        except TypeError:  # Python < 3.13: no track parameter
            segment = shared_memory.SharedMemory(name=spec.name, create=False)
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker layout varies
                pass
    else:
        segment = shared_memory.SharedMemory(name=spec.name, create=False)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    view.flags.writeable = False
    return segment, view


def _worker_run_shard_spawn(payload: dict) -> dict:
    """Spawn-pool entry point: rebuild the pool from SharedMemory, stream."""
    from repro.fleet.devices import WindowPool
    from repro.fleet.engine import FleetEngine

    normal_spec = payload.pop("_normal_spec")
    anomalous_spec = payload.pop("_anomalous_spec")
    normal_segment, normal = attach_array(normal_spec, untrack=True)
    anomalous_segment, anomalous = attach_array(anomalous_spec, untrack=True)
    try:
        payload["pool"] = WindowPool(normal=normal, anomalous=anomalous)
        child = shard_child_telemetry(payload, payload["shard_index"])
        engine = FleetEngine(**payload)
        metrics = engine.run_metrics().to_payload()
        return {
            "metrics": metrics,
            "obs": child.shard_payload() if child is not None else None,
        }
    finally:
        normal_segment.close()
        anomalous_segment.close()


def _run_sharded_spawn(heavy: dict, partitions, processes: int) -> list:
    from repro.fleet.checkpoint import shard_checkpoint_dir

    _install_signal_cleanup()
    pool_obj = heavy["pool"]
    normal_segment, normal_spec = export_array(pool_obj.normal)
    anomalous_segment, anomalous_spec = export_array(pool_obj.anomalous)
    light = {key: value for key, value in heavy.items() if key != "pool"}
    base = light.get("checkpoint_dir")
    payloads = []
    for index, partition in enumerate(partitions):
        payload = {
            **light,
            "device_ids": list(partition),
            "shard_index": index,
            "_normal_spec": normal_spec,
            "_anomalous_spec": anomalous_spec,
        }
        if base:
            payload["checkpoint_dir"] = shard_checkpoint_dir(base, index)
        payloads.append(payload)
    context = multiprocessing.get_context()
    try:
        with context.Pool(processes=processes) as worker_pool:
            handles = [
                worker_pool.apply_async(_worker_run_shard_spawn, (payload,))
                for payload in payloads
            ]
            results = []
            for handle in handles:
                try:
                    results.append(handle.get())
                except WorkerCrash as crash:
                    results.append(crash)
    finally:
        for segment in (normal_segment, anomalous_segment):
            segment.close()
            segment.unlink()
            if segment in _ACTIVE_SEGMENTS:
                _ACTIVE_SEGMENTS.remove(segment)
    return _revive_results(results)
