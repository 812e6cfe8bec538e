"""Fleet streaming benchmark — throughput, shard scaling, observer overheads.

Trains a small pipeline once, then streams the ``fleet-1k-drift`` workload
(1000 drifting devices by default) through the trained HEC system, recording
**windows/sec** per configuration into ``benchmarks/results/fleet.json`` so
future PRs have a trajectory to regress against:

* **columnar** — the unsharded :class:`~repro.fleet.engine.FleetEngine`,
  timed cold (first run generates the device streams) and warm (subsequent
  runs replay them from the bounded stream cache — the steady state of
  repeated experiments);
* **sharded** — :class:`~repro.fleet.engine.ShardedFleetEngine` at
  increasing shard counts under the default ``parallel="auto"`` policy, plus
  a forced fork-pool measurement when auto resolves to serial, so the
  worker-pool path is always exercised;
* **checkpointing** — the warm columnar run with durable checkpoints at
  cadence 10 and 100, measuring the wall-clock overhead of the
  write-ahead-atomic store (must stay within 10% at cadence 100 on
  full-sized sweeps, and bit-identical always);
* **telemetry** — the warm columnar run with the full observability layer on
  (per-tick spans, events, metrics registry, JSONL + Prometheus export),
  measuring the cost of instrumentation (must stay within 10% on full-sized
  sweeps, and bit-identical always — telemetry is a pure observer);
* **sharded telemetry** — the 2-shard run with per-shard child sessions
  (shard-NN/ sinks, scoped span ids, registry fold on join) against the
  untelemetered 2-shard run, under the same 10% ceiling.

Asserted on top of the timings:

* **bit-identity** — ``ShardedFleetEngine(n_shards=1)`` must equal the
  unsharded engine (the PR 3 acceptance pin), and the checkpointed,
  telemetered and shard-telemetered runs must equal their plain runs;
* **overhead ceilings and the multi-core >1× shard-scaling floor** — on
  full-sized sweeps only (small smoke sweeps record without asserting).

Throughput regressions are gated by the ``stream-cold``/``stream-warm``
workloads of the repo benchmark (``BENCHMARK.json``), not here.

Standalone usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py                # full 1k sweep
    PYTHONPATH=src python benchmarks/bench_fleet.py --devices 64 --ticks 8 --shards 1 2
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.fleet import sharding, stream_cache
from repro.fleet.devices import WindowPool
from repro.fleet.engine import FleetEngine, ShardedFleetEngine
from repro.obs.export import Telemetry
from repro.obs.spec import ObsSpec

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Stable schema tag for CI consumers (see benchmarks/compare_results.py).
#: v2: legacy/columnar split replaces the single "unsharded" entry; sharded
#: entries record their execution mode.  v3 adds the "checkpointing" block
#: (durable-checkpoint overhead at increasing cadence).  v4 adds the
#: "telemetry" block (observability-layer overhead vs warm columnar).  v5
#: adds the "sharded_telemetry" block (per-shard child sessions + merge vs
#: the untelemetered sharded run).  v6 drops the "legacy" block,
#: "columnar.speedup_vs_legacy", "equivalence.columnar_bit_identical_to_legacy"
#: and the columnar speedup floor (the per-window path is gone);
#: "scaling.columnar_floor_enforced" becomes "scaling.ceilings_enforced".
SCHEMA_VERSION = 6

#: The scenario whose fleet workload is streamed.
SCENARIO = "fleet-1k-drift"
#: Training is shrunk to seconds: the bench measures streaming, not fitting.
TRAIN_OVERRIDES = {
    "data.weeks": "12",
    "detectors.0.epochs": "3",
    "detectors.1.epochs": "3",
    "detectors.2.epochs": "3",
    "policy.episodes": "3",
}
#: Default shard sweep (1 -> 4, the acceptance range).
DEFAULT_SHARDS = (1, 2, 4)
#: Streaming defaults (overridable from the command line).  Ticks are sized so
#: per-shard compute dwarfs the worker dispatch overhead, which is what makes
#: the multi-core scaling measurement stable.
DEFAULT_DEVICES = 1000
DEFAULT_TICKS = 40
#: Timings take the best of this many runs.
REPEATS = 3
#: Floors are only enforced on sweeps at least this large: below it, fixed
#: per-run costs dominate and the measurement says nothing about the paths
#: (small CI smoke sweeps record their numbers without asserting).
MIN_SCALING_WINDOWS = 5_000
#: Checkpoint cadences measured against the cadence-off warm columnar run.
CHECKPOINT_CADENCES = (10, 100)
#: Acceptance ceiling: wall-clock overhead of cadence-100 checkpointing vs
#: the warm columnar baseline (enforced on full-sized sweeps only).
MAX_CHECKPOINT_OVERHEAD = 0.10
#: Acceptance ceiling: wall-clock overhead of the full telemetry pipeline
#: (spans + events + metrics + JSONL/Prometheus export) vs the warm columnar
#: baseline (enforced on full-sized sweeps only).
MAX_TELEMETRY_OVERHEAD = 0.10


def _available_cpus() -> int:
    return sharding.available_cpus()


def _trained_engine_kwargs(devices: int, ticks: int) -> dict:
    """Train the scenario once; returns the shared engine constructor kwargs."""
    spec = apply_overrides(get_scenario(SCENARIO), TRAIN_OVERRIDES)
    spec = apply_overrides(
        spec, {"fleet.n_devices": str(devices), "fleet.ticks": str(ticks)}
    )
    runner = ExperimentRunner(spec)
    for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
        getattr(runner, stage)()
    state = runner.state
    return dict(
        system=state.system,
        policy=state.policy,
        context_extractor=state.context_extractor,
        spec=spec.fleet,
        pool=WindowPool.from_labeled(state.standardized_all),
        master_seed=spec.seed,
        name=spec.name,
        tier_names=spec.topology.tier_names,
    )


def _timed_runs(fn, repeats: int):
    """``(per-run seconds, last result)`` for ``repeats`` runs of ``fn``."""
    seconds = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - start)
    return seconds, result


def _paired_overhead(subject_seconds, baseline_seconds):
    """Minimum pairwise overhead ratio across interleaved repeats.

    Each repeat times the baseline and subject legs back to back, so a pair
    shares whatever machine conditions held during that repeat; the cleanest
    pair bounds the intrinsic overhead.  Dividing the global minima instead
    would compare legs from different repeats and pick up cross-repeat drift
    — whole percents on a busy single-core box.
    """
    return min(s / b for s, b in zip(subject_seconds, baseline_seconds)) - 1.0


def run_bench_fleet(
    devices: int = DEFAULT_DEVICES,
    ticks: int = DEFAULT_TICKS,
    shards=DEFAULT_SHARDS,
    repeats: int = REPEATS,
) -> dict:
    """Time the unsharded/sharded sweep; returns the JSON-ready report."""
    kwargs = _trained_engine_kwargs(devices, ticks)

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_fleet.py",
        "scenario": SCENARIO,
        "cpus": _available_cpus(),
        "config": {
            "n_devices": devices,
            "ticks": ticks,
            "repeats": repeats,
            "shards": list(shards),
        },
    }

    # -- unsharded engine: cold (stream generation) and warm (cache replay) ----
    stream_cache.clear()
    columnar_seconds, columnar_report = _timed_runs(
        lambda: FleetEngine(**kwargs).run(), max(2, repeats)
    )
    columnar_best = min(columnar_seconds)
    n_windows = columnar_report.n_windows
    report["columnar"] = {
        "seconds": columnar_best,
        "cold_seconds": columnar_seconds[0],
        "windows_per_second": n_windows / columnar_best,
        "cold_windows_per_second": n_windows / columnar_seconds[0],
    }

    # -- checkpoint overhead: warm columnar runs at increasing save cadence ----
    # Timed against the warm columnar baseline above (same cache state); a
    # checkpointed run must also stay bit-identical to the uncheckpointed one.
    checkpoint_entries = []
    for cadence in CHECKPOINT_CADENCES:
        with tempfile.TemporaryDirectory(prefix="bench-fleet-ckpt-") as ckpt_dir:
            ckpt_seconds, ckpt_report = _timed_runs(
                lambda d=ckpt_dir, c=cadence: FleetEngine(
                    **kwargs, checkpoint_dir=d, checkpoint_cadence=c
                ).run(),
                repeats,
            )
        ckpt_best = min(ckpt_seconds)
        checkpoint_entries.append(
            {
                "cadence": cadence,
                "seconds": ckpt_best,
                "windows_per_second": n_windows / ckpt_best,
                # The final boundary is never saved (nothing left to resume).
                "n_checkpoints": (ticks - 1) // cadence,
                "overhead_vs_columnar": ckpt_best / columnar_best - 1.0,
                "bit_identical": ckpt_report == columnar_report,
            }
        )
    report["checkpointing"] = {
        "entries": checkpoint_entries,
        "max_overhead": MAX_CHECKPOINT_OVERHEAD,
        "note": (
            "overhead_vs_columnar compares best-of-N warm columnar wall-clock "
            "with and without durable checkpoints; the <= max_overhead ceiling "
            "for the largest cadence is enforced on full-sized sweeps only"
        ),
    }

    # -- telemetry overhead: warm columnar run with the full pipeline on -------
    # Everything the streaming loop pays is timed — per-tick spans, the
    # registry-backed stage profiler, counters, live JSONL writes.  The
    # finalize step (fsync + atomic rename of the three artifacts) runs
    # outside the timer: it is a fixed O(1) epilogue, not a per-window cost.
    # The baseline leg is re-timed here, interleaved with the telemetered leg
    # inside the same repeat loop, so both see the same machine conditions —
    # comparing against the columnar block timed minutes earlier makes the
    # ratio drift by whole percents on a busy single-core box.
    telemetry_seconds = []
    telemetry_baseline_seconds = []
    telemetry_report = None
    for _ in range(repeats):
        start = time.perf_counter()
        FleetEngine(**kwargs).run()
        telemetry_baseline_seconds.append(time.perf_counter() - start)
        with tempfile.TemporaryDirectory(prefix="bench-fleet-obs-") as obs_dir:
            telemetry = Telemetry(
                out_dir=obs_dir, spec=ObsSpec(dir=obs_dir), name=SCENARIO
            )
            start = time.perf_counter()
            telemetry_report = FleetEngine(**kwargs, telemetry=telemetry).run()
            telemetry_seconds.append(time.perf_counter() - start)
            telemetry.finalize()
    telemetry_best = min(telemetry_seconds)
    telemetry_baseline_best = min(telemetry_baseline_seconds)
    report["telemetry"] = {
        "seconds": telemetry_best,
        "windows_per_second": n_windows / telemetry_best,
        "baseline_seconds": telemetry_baseline_best,
        "overhead_vs_columnar": _paired_overhead(
            telemetry_seconds, telemetry_baseline_seconds
        ),
        "bit_identical": telemetry_report == columnar_report,
        "max_overhead": MAX_TELEMETRY_OVERHEAD,
        "note": (
            "overhead_vs_columnar is the minimum paired ratio of warm "
            "columnar wall-clock with and without the telemetry pipeline "
            "live (spans, events, metrics, incremental JSONL); both legs of "
            "each pair are timed back to back so the cleanest pair bounds "
            "the intrinsic overhead; the O(1) finalize export is not timed; "
            "the <= max_overhead ceiling is enforced on full-sized sweeps "
            "only"
        ),
    }

    # -- sharded telemetry overhead: child sessions + fold vs plain shards -----
    # Each shard runs its own child Telemetry session (shard-scoped span ids,
    # shard-NN/ sinks) and the parent folds the registries on join; this
    # block prices that whole pipeline against the untelemetered 2-shard run.
    shard_count = min(2, max(shards))
    plain_sharded_seconds = []
    plain_sharded_report = None
    sharded_tel_seconds = []
    sharded_tel_report = None
    # Interleave the plain and telemetered legs (same reasoning as above).
    for _ in range(repeats):
        start = time.perf_counter()
        plain_sharded_report = ShardedFleetEngine(
            **kwargs, n_shards=shard_count
        ).run()
        plain_sharded_seconds.append(time.perf_counter() - start)
        with tempfile.TemporaryDirectory(prefix="bench-fleet-shard-obs-") as obs_dir:
            telemetry = Telemetry(
                out_dir=obs_dir, spec=ObsSpec(dir=obs_dir), name=SCENARIO
            )
            start = time.perf_counter()
            sharded_tel_report = ShardedFleetEngine(
                **kwargs, n_shards=shard_count, telemetry=telemetry
            ).run()
            sharded_tel_seconds.append(time.perf_counter() - start)
            telemetry.finalize()
    plain_sharded_best = min(plain_sharded_seconds)
    sharded_tel_best = min(sharded_tel_seconds)
    report["sharded_telemetry"] = {
        "n_shards": shard_count,
        "seconds": sharded_tel_best,
        "windows_per_second": n_windows / sharded_tel_best,
        "plain_seconds": plain_sharded_best,
        "overhead_vs_plain_sharded": _paired_overhead(
            sharded_tel_seconds, plain_sharded_seconds
        ),
        "bit_identical": sharded_tel_report == plain_sharded_report,
        "max_overhead": MAX_TELEMETRY_OVERHEAD,
        "note": (
            "overhead_vs_plain_sharded is the minimum paired ratio of "
            "sharded wall-clock with and without per-shard child telemetry "
            "sessions (shard-NN/ sinks, scoped span ids, registry fold on "
            "join); both legs of each pair are timed back to back; the <= "
            "max_overhead ceiling is enforced on full-sized sweeps only"
        ),
    }

    # -- equivalence: one shard == unsharded, bit for bit ----------------------
    one_shard_report = ShardedFleetEngine(**kwargs, n_shards=1).run()
    report["equivalence"] = {
        "one_shard_bit_identical": one_shard_report == columnar_report,
        "n_windows": n_windows,
        "accuracy": columnar_report.accuracy,
        "f1": columnar_report.f1,
    }

    # -- scaling: windows/sec per shard count ---------------------------------
    entries = []
    for n_shards in shards:
        engine = ShardedFleetEngine(**kwargs, n_shards=n_shards)
        mode = (
            sharding.parallel_transport()
            if n_shards > 1 and engine._resolve_parallel()
            else "serial"
        )
        seconds, sharded_report = _timed_runs(lambda e=engine: e.run(), repeats)
        best = min(seconds)
        entries.append(
            {
                "n_shards": n_shards,
                "mode": mode,
                "seconds": best,
                "n_windows": sharded_report.n_windows,
                "windows_per_second": sharded_report.n_windows / best,
                "speedup_vs_1_shard": None,  # filled below once baseline known
            }
        )
    one_shard = next((e for e in entries if e["n_shards"] == 1), entries[0])
    for entry in entries:
        entry["speedup_vs_1_shard"] = (
            entry["windows_per_second"] / one_shard["windows_per_second"]
        )
    report["sharded"] = entries

    # The persistent fork pool is always measured, even where parallel="auto"
    # resolves to serial (single-core hosts), so its overhead stays visible.
    max_shards = max(shards)
    if max_shards > 1 and sharding.fork_available():
        forked_engine = ShardedFleetEngine(**kwargs, n_shards=max_shards, parallel=True)
        forked_seconds, forked_report = _timed_runs(
            lambda: forked_engine.run(), repeats
        )
        forked_best = min(forked_seconds)
        report["forked"] = {
            "n_shards": max_shards,
            "seconds": forked_best,
            "windows_per_second": forked_report.n_windows / forked_best,
            "speedup_vs_1_shard": (
                forked_report.n_windows / forked_best
            ) / one_shard["windows_per_second"],
        }

    full_sized = n_windows >= MIN_SCALING_WINDOWS
    report["scaling"] = {
        "max_shards": max(e["n_shards"] for e in entries),
        "max_speedup_vs_1_shard": max(e["speedup_vs_1_shard"] for e in entries),
        "floor_enforced": report["cpus"] > 1 and full_sized,
        "ceilings_enforced": full_sized,
        "min_scaling_windows": MIN_SCALING_WINDOWS,
        "note": (
            "speedups are wall-clock; the >1x shard floor is enforced only "
            "with more than one available CPU (see 'cpus') and a sweep of at "
            "least min_scaling_windows windows, the checkpoint/telemetry "
            "overhead ceilings on any full-sized sweep (fixed per-run costs "
            "dominate smaller sweeps)"
        ),
    }
    return report


def write_report(report: dict, name: str = "fleet") -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def _assert_report(report: dict) -> None:
    assert report["equivalence"]["one_shard_bit_identical"], (
        "ShardedFleetEngine(n_shards=1) diverged from the unsharded FleetEngine"
    )
    if report["scaling"]["floor_enforced"]:
        top = max(report["sharded"], key=lambda e: e["n_shards"])
        assert top["speedup_vs_1_shard"] > 1.0, (
            f"{top['n_shards']}-shard throughput did not beat 1 shard on a "
            f"{report['cpus']}-CPU host: {top['speedup_vs_1_shard']:.2f}x"
        )
    for entry in report["checkpointing"]["entries"]:
        assert entry["bit_identical"], (
            f"cadence-{entry['cadence']} checkpointing perturbed the stream"
        )
    assert report["telemetry"]["bit_identical"], (
        "the telemetry layer perturbed the stream (it must be a pure observer)"
    )
    assert report["sharded_telemetry"]["bit_identical"], (
        "per-shard child telemetry sessions perturbed the sharded stream"
    )
    if report["scaling"]["ceilings_enforced"]:
        slowest = max(
            report["checkpointing"]["entries"], key=lambda e: e["cadence"]
        )
        assert slowest["overhead_vs_columnar"] <= MAX_CHECKPOINT_OVERHEAD, (
            f"cadence-{slowest['cadence']} checkpointing cost "
            f"{slowest['overhead_vs_columnar']:.1%} of warm columnar throughput "
            f"(ceiling: {MAX_CHECKPOINT_OVERHEAD:.0%})"
        )
        telemetry_overhead = report["telemetry"]["overhead_vs_columnar"]
        assert telemetry_overhead <= MAX_TELEMETRY_OVERHEAD, (
            f"the telemetry pipeline cost {telemetry_overhead:.1%} of warm "
            f"columnar throughput (ceiling: {MAX_TELEMETRY_OVERHEAD:.0%})"
        )
        sharded_overhead = report["sharded_telemetry"]["overhead_vs_plain_sharded"]
        assert sharded_overhead <= MAX_TELEMETRY_OVERHEAD, (
            f"per-shard child telemetry cost {sharded_overhead:.1%} of sharded "
            f"throughput (ceiling: {MAX_TELEMETRY_OVERHEAD:.0%})"
        )


def _print_report(report: dict) -> None:
    print(
        f"fleet streaming ({report['config']['n_devices']} devices x "
        f"{report['config']['ticks']} ticks, {report['cpus']} CPUs)"
    )
    print(
        f"  columnar       {report['columnar']['windows_per_second']:10.0f} windows/s "
        f"warm (cold {report['columnar']['cold_windows_per_second']:.0f} w/s)"
    )
    for entry in report["checkpointing"]["entries"]:
        print(
            f"  ckpt @{entry['cadence']:<5} {entry['windows_per_second']:10.0f} windows/s "
            f"({entry['overhead_vs_columnar']:+.1%} vs columnar, "
            f"{entry['n_checkpoints']} checkpoint(s), bit-identical: "
            f"{entry['bit_identical']})"
        )
    telemetry = report["telemetry"]
    print(
        f"  telemetry      {telemetry['windows_per_second']:10.0f} windows/s "
        f"({telemetry['overhead_vs_columnar']:+.1%} vs columnar, bit-identical: "
        f"{telemetry['bit_identical']})"
    )
    sharded_telemetry = report["sharded_telemetry"]
    print(
        f"  shard-telem    {sharded_telemetry['windows_per_second']:10.0f} windows/s "
        f"({sharded_telemetry['overhead_vs_plain_sharded']:+.1%} vs "
        f"{sharded_telemetry['n_shards']}-shard plain, bit-identical: "
        f"{sharded_telemetry['bit_identical']})"
    )
    for entry in report["sharded"]:
        print(
            f"  {entry['n_shards']} shard(s)     {entry['windows_per_second']:10.0f} windows/s "
            f"({entry['speedup_vs_1_shard']:.2f}x vs 1 shard, {entry['mode']})"
        )
    if "forked" in report:
        forked = report["forked"]
        print(
            f"  {forked['n_shards']} shard(s)     {forked['windows_per_second']:10.0f} windows/s "
            f"({forked['speedup_vs_1_shard']:.2f}x vs 1 shard, fork-pool forced)"
        )


def test_fleet_throughput_and_equivalence():
    """Benchmark entry point for ``pytest benchmarks/bench_fleet.py`` (small sweep)."""
    report = run_bench_fleet(devices=128, ticks=8, shards=(1, 2), repeats=2)
    path = write_report(report, name="fleet_smoke")
    _print_report(report)
    print(f"\nfleet report written to {path}")
    _assert_report(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--devices", type=int, default=DEFAULT_DEVICES)
    parser.add_argument("--ticks", type=int, default=DEFAULT_TICKS)
    parser.add_argument("--shards", type=int, nargs="+", default=list(DEFAULT_SHARDS))
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument(
        "--name", default="fleet",
        help="results file stem (benchmarks/results/<name>.json)",
    )
    args = parser.parse_args()
    report = run_bench_fleet(
        devices=args.devices, ticks=args.ticks, shards=tuple(args.shards),
        repeats=args.repeats,
    )
    path = write_report(report, name=args.name)
    _print_report(report)
    print(f"\nwritten to {path}")
    _assert_report(report)


if __name__ == "__main__":
    main()
