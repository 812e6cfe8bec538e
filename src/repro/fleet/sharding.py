"""Sharded execution: how a :class:`~repro.fleet.engine.FleetEngine` runs a
spec with ``n_shards > 1``.

:func:`run_sharded` partitions the device ids across one-shard engines (shard
``i`` checkpoints under ``<checkpoint_dir>/shard-<i>``), runs them pooled or
serially and merges their metrics in shard order.

:func:`run_shard` streams one shard — the only place a shard's engine is
built, in-process or in a pool worker.  :func:`run_pooled` runs one run's
shards in a pool it creates for that call and tears down before returning, so
workers stream the state the caller holds *now* and no process outlives the
run.  Heavy state travels by inheritance: the per-shard payloads are the
pool's *initializer arguments* — copy-on-write under ``fork``, where nothing
pickles; pickled once per worker under ``spawn`` — and a task is a bare shard
index.  Results come back as compact
:meth:`~repro.fleet.metrics.StreamingMetrics.to_payload` arrays (a few KB).
The pool is a :class:`concurrent.futures.ProcessPoolExecutor`, so a worker
that dies without raising fails its shards with ``BrokenProcessPool`` instead
of hanging the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ReproError
from repro.fleet.checkpoint import shard_checkpoint_dir
from repro.fleet.faults import WorkerCrash
from repro.fleet.metrics import StreamingMetrics
from repro.utils.host import available_cpus


@dataclass
class ShardResult:
    """One shard's metrics plus its child telemetry payload (``None`` on
    untelemetered runs, else :meth:`~repro.obs.export.Telemetry.shard_payload`
    for the parent to absorb through the deterministic merge algebra)."""

    metrics: object
    obs: Optional[dict] = None


def run_shard(payload: dict, resume: bool = False) -> ShardResult:
    """Stream one shard from its :class:`~repro.fleet.engine.FleetEngine` kwargs.

    On telemetered runs the payload carries the ``obs`` recipe, not a live
    session; the shard records into a child session built from it.  The input
    is never mutated, so crash recovery can re-run it with a *fresh* child
    session (whose sink overwrites the crashed shard's half-written ``.tmp``).
    """
    from repro.fleet.engine import FleetEngine

    kwargs = dict(payload)
    config = kwargs.pop("obs", None)
    child = None
    if config is not None:
        child = kwargs["telemetry"] = config.child(kwargs["shard_index"])
    metrics = FleetEngine(**kwargs).run_metrics(resume=resume)
    return ShardResult(metrics, child.shard_payload() if child is not None else None)


#: The run's shard payloads — in pool workers only, set by :func:`_init_worker`.
_worker_payloads: Sequence[dict] = ()


def _init_worker(payloads: Sequence[dict]) -> None:
    global _worker_payloads
    # Workers die on SIGTERM: the parent's handler, inherited by fork, is not theirs.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _worker_payloads = payloads


def _pooled_shard(index: int) -> tuple:
    result = run_shard(_worker_payloads[index])
    return result.metrics.to_payload(), result.obs


def _kill_workers(executor) -> None:
    # ProcessPoolExecutor.kill_workers() only exists from Python 3.14.
    for worker in list((executor._processes or {}).values()):
        worker.kill()


@contextmanager
def _sigterm_kills_workers(executor):
    """While the pool lives, a SIGTERMed parent kills its workers before dying.

    SIGTERM's default disposition runs no cleanup, so the workers would stream
    on as orphans.  The handler kills them, then re-raises SIGTERM under the
    previous disposition (the conventional exit status).  Main thread only:
    ``signal.signal`` raises elsewhere.
    """

    def handle(signum, frame):
        _kill_workers(executor)
        signal.signal(signal.SIGTERM, previous)
        os.kill(os.getpid(), signal.SIGTERM)

    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, handle) if on_main else None
    try:
        yield
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


def run_pooled(payloads: Sequence[dict]) -> List[Union[ShardResult, WorkerCrash]]:
    """Run :func:`run_shard` over ``payloads`` in a pool owned by this call.

    Returns, in shard order, each shard's :class:`ShardResult` — or the
    :class:`~repro.fleet.faults.WorkerCrash` it died with (an *injected* crash
    is an application event, not a pool failure: the worker survives and the
    caller recovers the shard from its checkpoints).  Anything else raises —
    the caller owns the serial fallback.  However the call ends,
    ``KeyboardInterrupt`` included, every worker is dead and joined by then.
    """
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    executor = ProcessPoolExecutor(
        max_workers=len(payloads),
        mp_context=multiprocessing.get_context(method),
        initializer=_init_worker,
        initargs=(payloads,),
    )
    with _sigterm_kills_workers(executor):
        try:
            futures = [executor.submit(_pooled_shard, i) for i in range(len(payloads))]
            results = []
            for future in futures:
                try:
                    metrics, obs = future.result()
                    results.append(ShardResult(StreamingMetrics.from_payload(metrics), obs))
                except WorkerCrash as crash:
                    results.append(crash)
            return results
        except BaseException:
            # Nobody will read shards still streaming; shutdown() would wait for them.
            _kill_workers(executor)
            raise
        finally:
            executor.shutdown(wait=True, cancel_futures=True)


# -- the sharded run ----------------------------------------------------------------

#: The :class:`~repro.fleet.engine.FleetEngine` settings every shard engine
#: copies unchanged.
_SHARD_SETTINGS = (
    "system", "policy", "context_extractor", "pool", "master_seed",
    "name", "tier_names", "faults", "checkpoint_cadence",
)

#: Whether the degraded-parallelism warning already fired this process.
_pool_fallback_warned = False


def _warn_pool_fallback_once(exc: BaseException) -> None:
    """A silent serial fallback hides broken parallelism from benchmarks and
    CI logs, so name the failure — once per process."""
    global _pool_fallback_warned
    if _pool_fallback_warned:
        return
    _pool_fallback_warned = True
    warnings.warn(
        f"sharded fleet worker pool failed ({type(exc).__name__}: {exc}); "
        "falling back to serial in-process shards — throughput numbers from "
        "this run do not measure parallel scaling",
        RuntimeWarning,
        stacklevel=4,
    )


def _shard_payloads(engine) -> List[dict]:
    """The :class:`~repro.fleet.engine.FleetEngine` kwargs of every shard of
    ``engine``'s run, in shard order.

    On telemetered runs each payload carries the frozen recipe its shard
    builds a child session from (``shard-NN/`` sinks mirroring the checkpoint
    layout, shard-scoped trace ids).
    """
    common = {key: getattr(engine, key) for key in _SHARD_SETTINGS}
    common["spec"] = replace(engine.spec, n_shards=1)
    common["obs"] = engine.telemetry.shard_config() if engine.telemetry is not None else None
    partitions = np.array_split(np.arange(engine.spec.n_devices), engine.spec.n_shards)
    base = engine.checkpoint_dir
    return [
        {**common, "shard_index": index, "device_ids": partition.tolist(),
         "checkpoint_dir": base and shard_checkpoint_dir(base, index)}
        for index, partition in enumerate(partitions)
    ]


def _recover_shard(payload: dict) -> ShardResult:
    """Re-run a crashed shard in-process from its last durable checkpoint.

    At-most-once by construction: the dead worker returned nothing, so its
    partial stream was never merged, and the recovery run (resumed from the
    shard's own checkpoint store, crash events disarmed) produces the shard's
    complete metrics exactly once.  On telemetered runs the recovery builds a
    fresh child session whose sink overwrites the crashed shard's
    half-written ``trace.jsonl.tmp`` — the merged parent only ever sees the
    complete recovered shard.
    """
    warnings.warn(
        f"shard {payload['shard_index']} crashed; recovering it "
        "in-process from its last checkpoint",
        RuntimeWarning,
        stacklevel=4,
    )
    return run_shard(payload, resume=True)


def _absorb_shards(telemetry, results: Sequence[ShardResult]) -> List[StreamingMetrics]:
    """Fold child telemetry into the parent session, in shard order.

    Child registries merge through the deterministic algebra (counters add,
    gauges max, histogram buckets add elementwise); in-memory children's
    spans/events re-emit through the parent sink with their shard-scoped ids.
    Each merge is logged as a ``shard.merge`` event, and the parent's watcher
    (``--watch``) observes shard completions.
    """
    if telemetry is not None:
        for index, result in enumerate(results):
            telemetry.absorb_shard(result.obs)
            telemetry.event("shard.merge", shard=index, scope=result.obs.get("scope"))
            if telemetry.watcher is not None:
                telemetry.watcher.observe(float(index + 1))
    return [result.metrics for result in results]


def run_sharded(engine, resume: bool = False) -> StreamingMetrics:
    """Stream ``engine``'s fleet as ``engine.spec.n_shards`` one-shard engines
    and merge their metrics in shard order.

    The shards fork a worker pool when the host has more than one CPU (on one
    core, fork/IPC overhead buys only time-slicing) and the run is not a
    resume: resumed shards restore the shared system from their own stores,
    one at a time.  A pool that fails outright warns once per process and the
    shards run serially instead.  On telemetered runs each shard records into
    its own child session, which the parent absorbs in shard order.
    """
    payloads = _shard_payloads(engine)
    results = None
    if not resume and available_cpus() > 1:
        try:
            results = run_pooled(payloads)
        except ReproError:
            # Application errors raised inside a worker (configuration/shape
            # problems) are not pool failures: re-running them serially would
            # double the wall-clock only to raise the same error, behind a
            # warning blaming parallelism.  ReproErrors also subclass
            # ValueError/RuntimeError, so this re-raise must precede the catch.
            raise
        except (OSError, ValueError, RuntimeError, multiprocessing.ProcessError) as exc:
            # RuntimeError: BrokenProcessPool, a worker that died without
            # raising (OOM kill) — its shards have no result to wait for.
            _warn_pool_fallback_once(exc)
    if results is None:
        # In-process: FleetEngine.run_metrics resets the shared system before
        # each shard, so sequential shards stay isolated.
        results = []
        for payload in payloads:
            try:
                results.append(run_shard(payload, resume=resume))
            except WorkerCrash as crash:
                results.append(crash)
    # Injected shard crashes sit in their shard's slot, pooled or serial.
    results = [
        _recover_shard(payload) if isinstance(result, WorkerCrash) else result
        for payload, result in zip(payloads, results)
    ]
    return StreamingMetrics.merge(_absorb_shards(engine.telemetry, results))
