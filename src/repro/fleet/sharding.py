"""Sharded execution: one shard runner, one worker pool per pooled run.

:func:`run_shard` streams one shard — the only place a shard's
:class:`~repro.fleet.engine.FleetEngine` is built, in-process or in a pool
worker.  :func:`run_pooled` runs one run's shards in a pool it creates for
that call and tears down before returning, so workers stream the state the
caller holds *now* and no process outlives the run.  Heavy state travels by
inheritance: the per-shard payloads are the pool's *initializer arguments* —
copy-on-write under ``fork``, where nothing pickles; pickled once per worker
under ``spawn`` — and a task is a bare shard index.  Results come back as
compact :meth:`~repro.fleet.metrics.StreamingMetrics.to_payload` arrays (a
few KB).  The pool is a :class:`concurrent.futures.ProcessPoolExecutor`, so a
worker that dies without raising fails its shards with ``BrokenProcessPool``
instead of hanging the parent.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.fleet.faults import WorkerCrash


def available_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


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
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.fleet.metrics import StreamingMetrics

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
