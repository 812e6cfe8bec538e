"""Run one workload: set up, warm up, measure, check, and report by name.

A run is ``set-up x SETUP_REPEATS -> warm-up -> measured operations``.  With
tracing off every measured operation feeds the end-to-end metrics.  A traced
run spends a third of its time on untraced operations (the base of
``trace.overhead_share``), then installs the timing wrappers, runs traced
operations for the rest, removes the wrappers and runs the workload's guard
passes; its per-layer metrics are means over the traced operations, except
the latencies the program times itself, which come from the untraced third.

Three devices make runs of one commit agree on a host whose speed wanders
(README, "The host clock"):

* operations are short, and a run takes many of them;
* a fixed kernel (:class:`HostClock`) is timed between operations, each
  operation's time is divided by the slowdown of the host around it, and the
  run reports the median operation;
* latencies the program measures per request are not processor time and are
  reported as they are, summarised by their *fast decile* (:func:`fast`),
  which drops the seconds in which the host stalls.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.perf.layers import BOUNDARIES, install_submit_lag, layer_metrics
from benchmarks.perf.tracing import Tracer
from benchmarks.perf.workloads import WORKLOADS, OpResult, Workload

PERF_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = PERF_DIR.parents[1] / "BENCHMARK.json"
REFERENCE_JSON = PERF_DIR / "reference.json"
RESULT_SCHEMA = "perf-result/1"

#: Set-up runs this many times; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Untimed operations before measuring: the first ones pay one-off costs
#: (lazy imports, allocator growth, cold caches) no later one does.
WARMUP_SECONDS = 1.5
#: Which latency sample stands for a run: the 10th percentile.
FAST_PERCENTILE = 10.0
#: Serving alternates two kinds of operation; a phase needs one of each.
MIN_OPS = 2
#: What the host clock's kernel takes on the build host when nothing disturbs
#: it.  Times are reported as on a host that runs the kernel in this long.
REFERENCE_KERNEL_S = 0.019

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def pin_allocator() -> str:
    """Fix glibc malloc's mmap and trim thresholds for this process; returns
    what was done, for :func:`environment`.

    Left alone the thresholds adapt to the first large blocks freed, and where
    they settle differs from process to process: ``offline-univariate`` then
    takes anything from 58 000 to 140 000 minor page faults per operation
    (734 to 878 ms, a fifth of it system time) depending on nothing the
    program or its inputs control.  With both thresholds out of reach no
    block is handed back, so every process reads the same (637-655 ms).
    Called from the entry point only: a test process keeps its allocator.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return "default"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    pinned = mallopt(m_mmap_threshold, 32 * 1024 * 1024) and mallopt(
        m_trim_threshold, 2**31 - 1
    )
    return "mmap_threshold=32MiB trim_threshold=2GiB" if pinned else "default"


def environment(seed: int, allocator: str) -> dict:
    """The measurement environment, recorded in every result file."""
    blas = "unknown"
    try:
        depends = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{depends.get('name')} {depends.get('version')}"
    except (KeyError, TypeError):
        pass
    return {
        "seed": int(seed),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "allocator": allocator,
    }


def fast(values: Sequence[float]) -> float:
    """The latency sample that stands for a run: the fast decile of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), FAST_PERCENTILE))


class HostClock:
    """How much slower than the reference the host runs, from a fixed kernel.

    The kernel is the workloads' own mix in small: NumPy calls on window-sized
    arrays and interpreter work, about 10 ms of each.  It is part of the
    benchmark and never changes with the program, so dividing a time by a
    slowdown moves nothing a change to the program moves.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._windows = rng.standard_normal((64, 672))
        self._weights = rng.standard_normal((672, 128))

    def tick(self) -> float:
        """Time the kernel once; returns its time over the reference's."""
        start = perf_counter()
        total = 0.0
        for _ in range(60):
            total += float(np.tanh(self._windows @ self._weights).sum())
        counts: Dict[int, int] = {}
        for i in range(40_000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        return (perf_counter() - start) / REFERENCE_KERNEL_S


def _between(ticks: Sequence[float]) -> List[float]:
    """The host's slowdown during what ran between consecutive ``ticks``."""
    return [(before + after) / 2.0 for before, after in zip(ticks, ticks[1:])]


def _run_ops(
    workload: Workload,
    first_index: int,
    seconds: float,
    clock: HostClock,
    tracer: Optional[Tracer] = None,
    min_ops: int = MIN_OPS,
) -> Tuple[List[OpResult], List[float]]:
    """Operations ``first_index, first_index + 1, ...`` until ``seconds`` pass,
    and the host's slowdown during each (a tick of the clock on either side)."""
    ops: List[OpResult] = []
    deadline = perf_counter() + seconds
    ticks = [clock.tick()]
    while len(ops) < min_ops or perf_counter() < deadline:
        index = first_index + len(ops)
        if tracer is None:
            ops.append(workload.op(index))
        else:
            with tracer.span("op"):
                ops.append(workload.op(index, tracer))
        ticks.append(clock.tick())
    return ops, _between(ticks)


def _pooled(ops: Sequence[OpResult]) -> OpResult:
    """All of ``ops`` as one sample."""
    return OpResult(
        units=sum(op.units for op in ops),
        busy_s=sum(op.busy_s for op in ops),
        latencies_ms=[value for op in ops for value in op.latencies_ms],
    )


def summarise(
    ops: Sequence[OpResult], slowdowns: Sequence[float], workload: Workload
) -> Dict[str, float]:
    """Throughput and latency of ``ops`` on the reference host.

    Throughput samples are one per operation, each multiplied by the host's
    slowdown during it; the run reports their median.  Latency samples are the
    p50 and p90 of each ``workload.latency_chunk`` consecutive requests (each
    operation whole when that is ``None``), so a second of interference spoils
    a few samples and not the run's percentile; they are the program's own
    measurements and are not scaled.  A batch operation has no requests: its
    latency is the time of an operation of the nominal size, the reciprocal of
    its throughput.

    A workload that is not ``host_bound`` keeps the time its simulated clock
    sets: its operations are pooled into one sample, because what differs
    between them is the draw of the schedule, and nothing is scaled.
    """
    if not workload.host_bound:
        ops, slowdowns = [_pooled(ops)], [1.0]
    rates = [
        slowdown * op.units / op.busy_s for op, slowdown in zip(ops, slowdowns) if op.units
    ]
    p50s, p90s = [], []
    for op in ops:
        latencies = np.asarray(op.latencies_ms, dtype=float)
        if not len(latencies):
            continue
        size = min(workload.latency_chunk or len(latencies), len(latencies))
        # A trailing part-chunk is dropped; its percentiles rest on too few.
        for start in range(0, len(latencies) - size + 1, size):
            p50, p90 = np.percentile(latencies[start : start + size], (50, 90))
            p50s.append(p50)
            p90s.append(p90)
    out = {}
    if rates:
        out["throughput_per_s"] = statistics.median(rates)
    if p50s:
        out["latency_p50_ms"] = fast(p50s)
        out["latency_p90_ms"] = fast(p90s)
    elif rates:
        out["latency_p50_ms"] = out["latency_p90_ms"] = (
            1000.0 * workload.nominal_units / out["throughput_per_s"]
        )
    return out


def _cost_ratio(traced: Dict[str, float], untraced: Dict[str, float]) -> float:
    """Traced over untraced cost, averaged over service rate and median
    latency (one and the same thing on a batch workload)."""
    ratios = [
        untraced["throughput_per_s"] / traced["throughput_per_s"],
        traced["latency_p50_ms"] / untraced["latency_p50_ms"],
    ]
    return sum(ratios) / len(ratios)


def program_start_s() -> float:
    """Seconds a fresh interpreter takes to start and import the program's
    public packages -- what every ``repro`` command pays before it works."""
    src = PERF_DIR.parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import repro.experiments, repro.fleet, repro.serving"
    )
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - start


def measure_setup(workload: Workload, repeats: int, clock: HostClock) -> Tuple[float, float]:
    """``setup_s`` -- program start plus the workload's build, the median of
    ``repeats`` on the reference host -- and the host's median slowdown."""
    times = []
    ticks = [clock.tick()]
    for _ in range(repeats):
        begin = perf_counter()
        program_start_s()
        workload.build()
        times.append(perf_counter() - begin)
        ticks.append(clock.tick())
    slowdowns = _between(ticks)
    scaled = [seconds / slowdown for seconds, slowdown in zip(times, slowdowns)]
    return statistics.median(scaled), statistics.median(slowdowns)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint(workload: Workload, first_op: OpResult) -> dict:
    """sha256 of operation 0's integer outcomes, compared (never failed)
    against ``reference.json`` — later work re-draws the streams by design."""
    digest = hashlib.sha256(json.dumps(first_op.outcome).encode()).hexdigest()
    reference = None
    if not workload.is_smoke and REFERENCE_JSON.is_file():
        recorded = json.loads(REFERENCE_JSON.read_text(encoding="utf-8"))
        reference = recorded.get(workload.name, {}).get(str(workload.seed))
    status = "no-reference" if reference is None else (
        "match" if reference == digest else "changed"
    )
    return {"sha256": digest, "reference": status}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    allocator: str = "default",
) -> Tuple[dict, Optional[Tracer]]:
    """Run workload ``name`` once; returns the result document and, for a
    traced run, the tracer holding its spans.  ``allocator`` is what
    :func:`pin_allocator` returned, if the caller pinned it."""
    bench = load_benchmark()
    workload: Workload = WORKLOADS[name](seed, smoke)

    clock = HostClock()
    setup_s, setup_slowdown = measure_setup(workload, 1 if smoke else SETUP_REPEATS, clock)
    warmup = [] if smoke else _run_ops(workload, 0, WARMUP_SECONDS, clock, min_ops=1)[0]
    measured, slowdowns = _run_ops(
        workload, len(warmup), seconds / 3 if trace else seconds, clock
    )
    ops = warmup + measured
    untraced = summarise(measured, slowdowns, workload)
    end_to_end = {"setup_s": setup_s, **untraced, "peak_rss_mb": peak_rss_mb()}
    host = {
        "reference_kernel_ms": 1000.0 * REFERENCE_KERNEL_S,
        "setup_slowdown": setup_slowdown,
        "run_slowdown": statistics.median(slowdowns),
    }

    per_layer = None
    tracer = None
    if trace:
        tracer = Tracer(f"{name}-seed{seed}")
        tracer.install(BOUNDARIES)
        install_submit_lag(tracer)
        try:
            traced, traced_slowdowns = _run_ops(
                workload, len(ops), 2 * seconds / 3, clock, tracer
            )
        finally:
            tracer.uninstall()
        ops += traced
        host["traced_slowdown"] = statistics.median(traced_slowdowns)
        extras = workload.layer_extras(measured, traced, tracer)
        extras.update(workload.guards())
        extras["trace.overhead_share"] = (
            _cost_ratio(summarise(traced, traced_slowdowns, workload), untraced) - 1.0
        )
        computed = layer_metrics(tracer, len(traced), extras)
        # Declared order; a layer this workload has no numbers for reports 0,
        # like a layer it never enters.  Anything undeclared is kept, so that
        # validation names it.
        per_layer = {m["name"]: computed.pop(m["name"], 0.0) for m in bench["per_layer"]}
        per_layer.update(computed)

    failures = [message for op in ops for message in op.failures]
    failed = sum(op.failed for op in ops)
    units = {metric["name"]: metric["unit"] for metric in bench["end_to_end"] + bench["per_layer"]}
    document = {
        "schema": RESULT_SCHEMA,
        "workload": name,
        "seed": int(seed),
        "seconds": float(seconds),
        "trace": bool(trace),
        "smoke": bool(smoke),
        "environment": environment(seed, allocator),
        "host": host,
        "unit_of_work": workload.unit,
        "nominal_units": workload.nominal_units,
        "operations": {"warmup": len(warmup), "measured": len(measured),
                       "traced": len(ops) - len(warmup) - len(measured)},
        "correct": failed == 0 and not failures,
        "attempted": sum(op.attempted for op in ops),
        "failed": failed,
        "failures": failures[:20],
        "fingerprint": _fingerprint(workload, ops[0]),
        "end_to_end": _with_units(end_to_end, units),
        "per_layer": _with_units(per_layer, units) if per_layer is not None else None,
    }
    return document, tracer


def _with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {
        name: {"value": float(value), "unit": units.get(name, "?")}
        for name, value in values.items()
    }


def final_line(document: dict) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    metrics = document["per_layer"] if document["trace"] else document["end_to_end"]
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": metrics,
        }
    )


def print_report(document: dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit, then the driver's JSON line."""
    ops = document["operations"]
    print(
        f"== {document['workload']} seed={document['seed']} "
        f"trace={int(document['trace'])}: {ops['measured']} measured + "
        f"{ops['traced']} traced operations after {ops['warmup']} warm-up "
        f"(unit of work: {document['unit_of_work']}); host took "
        f"{document['host']['run_slowdown']:.3f}x the reference kernel's time",
        file=stream,
    )
    for section in ("end_to_end", "per_layer"):
        for name, metric in (document[section] or {}).items():
            print(f"{name:<44s} {metric['value']:>16.6g} {metric['unit']}", file=stream)
    fingerprint = document["fingerprint"]
    print(
        f"outputs: {'correct' if document['correct'] else 'INCORRECT'}; "
        f"failed {document['failed']} of {document['attempted']}; "
        f"fingerprint {fingerprint['sha256'][:16]} ({fingerprint['reference']})",
        file=stream,
    )
    for message in document["failures"]:
        print(f"  check failed: {message}", file=stream)
    print(final_line(document), file=stream)


def validate_result(document: dict, bench: Optional[dict] = None) -> None:
    """Raise ``ValueError`` unless ``document`` is a well-formed result file."""
    bench = bench or load_benchmark()
    problems = []
    expected = {
        "schema": str, "workload": str, "seed": int, "seconds": float, "trace": bool,
        "smoke": bool, "environment": dict, "host": dict, "unit_of_work": str,
        "nominal_units": float,
        "operations": dict, "correct": bool, "attempted": int, "failed": int,
        "failures": list, "fingerprint": dict, "end_to_end": dict,
    }
    for key, kind in expected.items():
        if not isinstance(document.get(key), kind):
            problems.append(f"{key!r} missing or not {kind.__name__}")
    if document.get("schema") != RESULT_SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, not {RESULT_SCHEMA!r}")
    if document.get("workload") not in {w["name"] for w in bench["workloads"]}:
        problems.append(f"unknown workload {document.get('workload')!r}")
    for key in ("seed", "nproc", "python", "numpy", "blas", "threads", "allocator"):
        if key not in document.get("environment", {}):
            problems.append(f"environment lacks {key!r}")
    sections = [("end_to_end", bench["end_to_end"])]
    if document.get("trace"):
        sections.append(("per_layer", bench["per_layer"]))
    for section, declared in sections:
        reported = document.get(section) or {}
        names = [metric["name"] for metric in declared]
        if sorted(reported) != sorted(names):
            problems.append(
                f"{section}: missing {sorted(set(names) - set(reported))}, "
                f"undeclared {sorted(set(reported) - set(names))}"
            )
        for metric in declared:
            got = reported.get(metric["name"])
            if got is None:
                continue
            if got.get("unit") != metric["unit"]:
                problems.append(f"{metric['name']}: unit {got.get('unit')!r} != {metric['unit']!r}")
            value = got.get("value")
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
                problems.append(f"{metric['name']}: value {value!r} is not a number")
    if problems:
        raise ValueError("; ".join(problems))


def write_result(document: dict, tracer: Optional[Tracer], out_dir: Path) -> Path:
    """Write the result file (and the trace of a traced run) under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "-traced" if document["trace"] else ""
    path = out_dir / f"{document['workload']}-seed{document['seed']}{suffix}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(out_dir / f"trace-{document['workload']}.jsonl")
    return path
