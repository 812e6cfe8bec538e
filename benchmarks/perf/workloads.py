"""The six workloads: what each runs, how its work is counted, how it is checked.

Every workload drives the program through its public API only
(``repro.experiments``, ``repro.fleet``, ``repro.serving``) and draws its
inputs from the workload seed; the program sees the resolved spec and the
seeds in it, nothing else.  One *operation* is one call a user
would make — a full ``ExperimentRunner.run()``, one ``FleetEngine.run()``
pass, one ``serve_workload()`` phase — and the harness repeats operations for
the run's measuring time, so a run's length does not depend on the host.

Three things would make the work depend on the seed, and are pinned:

* the univariate dataset keeps 24 to 27 training weeks depending on where its
  anomalous days fall, which is 3 or 4 batches of 8 per epoch and a fifth of
  the run, so the offline workloads keep the scenario's registered data seed
  and the workload seed draws everything else (initial weights, shuffles,
  the policy's exploration);
* early stopping (patience 5 on the training loss) ends a ``fit`` after a
  seed-dependent number of epochs, so the offline workloads train for 5
  epochs — below the patience, where it cannot fire;
* the tier mix a trained policy settles on differs between training seeds
  (28 % to 83 % of windows kept on the IoT tier over seeds 0-9 of
  ``fleet-1k-drift``, a 30 % swing in windows per second), so the streaming
  and serving workloads train once at the scenario's registered seed — the
  deployed model is part of the program — and the workload seed draws the
  device streams and the request schedule.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.fleet import DeviceFleet, FleetEngine, WindowPool, stream_cache
from repro.obs.export import Telemetry
from repro.serving.run import serve_workload

from benchmarks.perf.layers import CHECKPOINT_BOUNDARY
from benchmarks.perf.tracing import Tracer

#: Scratch space for the guard passes (checkpoints, telemetry); inside the
#: benchmark's own directory because a run may write nowhere else.
WORK_DIR = Path(__file__).resolve().parent / ".work"

TRAIN_STAGES = ("prepare_data", "fit_detectors", "deploy", "train_policy")


@dataclass
class OpResult:
    """What one operation did, as the harness needs it."""

    #: Work units completed and the seconds they took (``units == 0``: the
    #: operation contributes no throughput sample).
    units: float = 0.0
    busy_s: float = 0.0
    #: Per-request latencies as the program measured them (serving only).
    latencies_ms: Sequence[float] = ()
    #: Windows evaluated/streamed or requests offered, and how many of them
    #: failed an output check.
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Integer outcome fields (the fingerprint hashes operation 0's).
    outcome: Tuple[int, ...] = ()
    #: Samples only the workload can see, for the per-layer metrics.
    extras: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


class Workload:
    """Base: ``build()`` is the repeatable set-up, ``op(i)`` one operation."""

    name: str
    #: What ``throughput_per_s`` counts and what one nominal operation holds
    #: (a batch workload's latency is the time of a nominal operation).
    unit: str
    nominal_units: float
    scenario: str
    full: Mapping[str, object]
    smoke: Mapping[str, object]
    #: Requests per latency sample (``None``: one sample per operation).
    latency_chunk: Optional[int] = None
    #: ``False`` when a simulated clock, not the host's speed, sets the time.
    host_bound = True

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.is_smoke = bool(smoke)

    def base_spec(self):
        overrides = dict(self.full)
        if self.is_smoke:
            overrides.update(self.smoke)
        return apply_overrides(get_scenario(self.scenario), overrides)

    def build(self) -> None:
        raise NotImplementedError

    def op(self, index: int, tracer: Optional[Tracer] = None) -> OpResult:
        raise NotImplementedError

    def layer_extras(
        self, untraced: Sequence[OpResult], traced: Sequence[OpResult], tracer: Tracer
    ) -> Dict[str, float]:
        """Per-layer numbers the spans cannot see.  Counts come from the
        ``traced`` operations, like the spans they stand beside; what the
        program itself timed comes from the ``untraced`` ones, which no
        wrapper slowed."""
        return {}

    def guards(self) -> Dict[str, float]:
        """Extra guard passes of a traced run (outside the traced operations)."""
        return {}


# -- offline ---------------------------------------------------------------------


class OfflineWorkload(Workload):
    """``ExperimentRunner(spec).run()`` on a fresh derived master seed per operation."""

    def build(self) -> None:
        self.base = self.base_spec()

    def count_units(self, runner: ExperimentRunner) -> float:
        raise NotImplementedError

    def op(self, index: int, tracer: Optional[Tracer] = None) -> OpResult:
        # ``replace``, not ``with_seed``: the data seed stays (see module docstring).
        spec = replace(self.base, seed=self.seed * 10_000 + index)
        start = perf_counter()
        runner = ExperimentRunner(spec)
        result = runner.run()
        wall_s = perf_counter() - start
        op = OpResult(units=self.count_units(runner), busy_s=wall_s)
        n_test = int(runner.state.test_windows.shape[0])
        evaluations = result.evaluations
        op.attempted = n_test * len(evaluations)
        op.check(len(evaluations) == 5, f"expected 5 schemes, got {sorted(evaluations)}")
        for name, evaluation in evaluations.items():
            op.check(
                evaluation.predictions.shape[0] == n_test,
                f"{name}: {evaluation.predictions.shape[0]} predictions for {n_test} windows",
            )
        ours, cloud = evaluations.get("Our Method"), evaluations.get("Cloud")
        # The quality floors need trained detectors; smoke sizes barely train.
        if ours is not None and cloud is not None and not self.is_smoke:
            op.check(
                ours.mean_delay_ms < cloud.mean_delay_ms,
                f"Our Method delay {ours.mean_delay_ms:.1f} ms not below "
                f"Cloud {cloud.mean_delay_ms:.1f} ms (seed {spec.seed})",
            )
            op.check(
                ours.f1 >= cloud.f1 - 0.15,
                f"Our Method F1 {ours.f1:.3f} more than 0.15 below "
                f"Cloud {cloud.f1:.3f} (seed {spec.seed})",
            )
        op.failed = op.attempted if op.failures else 0
        op.outcome = tuple(
            int(value)
            for evaluation in evaluations.values()
            for value in (*evaluation.predictions, *evaluation.layers)
        )
        return op


def _epochs_run(runner: ExperimentRunner) -> List[int]:
    return [detector.model.history.epochs for detector in runner.state.detectors]


class OfflineUnivariate(OfflineWorkload):
    name = "offline-univariate"
    scenario = "univariate-power-paper"
    unit = "train batches"
    nominal_units = 45.0
    full = {
        "detectors.0.epochs": 5,
        "detectors.1.epochs": 5,
        "detectors.2.epochs": 5,
        "policy.episodes": 10,
    }
    smoke = {
        "data.weeks": 16,
        "data.samples_per_day": 24,
        "detectors.0.epochs": 1,
        "detectors.1.epochs": 1,
        "detectors.2.epochs": 1,
        "policy.episodes": 2,
    }

    def count_units(self, runner: ExperimentRunner) -> float:
        n_train = runner.state.train_windows.shape[0]
        return float(
            sum(
                epochs * -(-n_train // det_spec.batch_size)
                for epochs, det_spec in zip(_epochs_run(runner), runner.spec.detectors)
            )
        )


class OfflineMultivariate(OfflineWorkload):
    name = "offline-multivariate"
    scenario = "multivariate-mhealth"
    unit = "window passes"
    nominal_units = 885.0
    full = {
        "data.n_subjects": 2,
        "data.window_size": 64,
        "data.stride": 32,
        "detectors.0.units": 16,
        "detectors.1.units": 32,
        "detectors.2.units": 48,
        "detectors.0.epochs": 5,
        "detectors.1.epochs": 5,
        "detectors.2.epochs": 5,
        "policy.episodes": 10,
    }
    smoke = {
        "data.n_subjects": 2,
        "data.window_size": 32,
        "data.stride": 16,
        "detectors.0.units": 4,
        "detectors.1.units": 6,
        "detectors.2.units": 8,
        "detectors.0.epochs": 1,
        "detectors.1.epochs": 1,
        "detectors.2.epochs": 1,
        "policy.episodes": 1,
    }

    def count_units(self, runner: ExperimentRunner) -> float:
        """Windows pushed through a model: training, REINFORCE and the schemes."""
        state = runner.state
        return float(
            state.train_windows.shape[0] * sum(_epochs_run(runner))
            + state.reward_table.shape[0] * runner.spec.policy.episodes
            + state.test_windows.shape[0] * len(state.result.evaluations)
        )


# -- shared set-up of the online workloads -----------------------------------------


class TrainedWorkload(Workload):
    """Set-up shared by streaming and serving: train once, build the pool."""

    def build(self) -> None:
        self.spec = self.base_spec()
        runner = ExperimentRunner(self.spec)
        for stage in TRAIN_STAGES:
            getattr(runner, stage)()
        self.runner = runner
        self.pool = WindowPool.from_labeled(runner.state.standardized_all)
        # Every process starts with cold stream caches; so does every set-up.
        stream_cache.clear()
        self.expected_arrivals = self._count_arrivals()

    def _fleet(self) -> DeviceFleet:
        return DeviceFleet(self.spec.fleet, self.pool, master_seed=self.seed)

    def _count_arrivals(self) -> int:
        """Arrivals the fleet generates, counted independently of the engine."""
        fleet = self._fleet()
        return sum(
            fleet.arrivals_columnar(tick).n for tick in range(self.spec.fleet.ticks)
        )

    def _system_kwargs(self) -> dict:
        state = self.runner.state
        return dict(
            system=state.system,
            policy=state.policy,
            context_extractor=state.context_extractor,
            master_seed=self.seed,
            name=self.spec.name,
            tier_names=self.runner.tier_names,
        )


# -- streaming ---------------------------------------------------------------------


class StreamWorkload(TrainedWorkload):
    """``FleetEngine(...).run()`` over the same seeded fleet, cold or warm."""

    scenario = "fleet-1k-drift"
    unit = "windows"
    nominal_units = 8_000.0
    cold: bool
    # The scenario as registered: 40 ticks, ~8000 windows, far below the stream
    # cache's 250 000-arrival budget, so a warm pass is served entirely from
    # it.  Passes this short (0.15 s cold, 0.07 s warm) give a run a hundred
    # samples, each with the host clock's reading on either side of it.
    full: Mapping[str, object] = {}
    smoke = {
        "fleet.n_devices": 50,
        "fleet.ticks": 10,
        "fleet.mutators.0.drift_per_tick": 0.08,
        "data.weeks": 8,
        "detectors.0.epochs": 2,
        "detectors.1.epochs": 2,
        "detectors.2.epochs": 2,
        "policy.episodes": 2,
    }

    def build(self) -> None:
        super().build()
        self.first_report = None

    def _engine(self, **kwargs) -> FleetEngine:
        return FleetEngine(
            spec=self.spec.fleet, pool=self.pool, **self._system_kwargs(), **kwargs
        )

    def _pass(self, **kwargs) -> Tuple[float, object]:
        engine = self._engine(**kwargs)
        start = perf_counter()
        report = engine.run()
        return perf_counter() - start, report

    def op(self, index: int, tracer: Optional[Tracer] = None) -> OpResult:
        if self.cold:
            stream_cache.clear()
        wall_s, report = self._pass()
        op = OpResult(units=float(report.n_windows), busy_s=wall_s)
        op.attempted = int(report.n_windows)
        op.check(
            report.n_windows == self.expected_arrivals,
            f"streamed {report.n_windows} windows, fleet generated {self.expected_arrivals}",
        )
        op.check(
            sum(tier.requests for tier in report.tiers) == report.n_windows,
            "tier counts do not sum to n_windows",
        )
        op.check(
            sum(block.n_windows for block in report.windowed) == report.n_windows,
            "windowed confusion counts do not sum to n_windows",
        )
        redirects = sum(tier.redirected for tier in report.tiers)
        op.check(redirects == 0, f"{redirects} failover redirects on a healthy run")
        if self.first_report is None:
            self.first_report = report
        op.check(report == self.first_report, "FleetReport differs from the first pass")
        op.failed = op.attempted if op.failures else 0
        op.outcome = (
            report.n_windows,
            report.n_anomalous,
            report.online_device_ticks,
            report.offline_device_ticks,
            *(tier.requests for tier in report.tiers),
            *(tier.anomalies_reported for tier in report.tiers),
            *(block.n_windows for block in report.windowed),
        )
        op.extras = {"redirects": redirects}
        return op

    def layer_extras(
        self, untraced: Sequence[OpResult], traced: Sequence[OpResult], tracer: Tracer
    ) -> Dict[str, float]:
        return {
            "hec.failover_redirects": float(sum(op.extras["redirects"] for op in traced)),
            "fleet.stream_cache_entries": float(stream_cache.cache_stats()[1]),
        }


class StreamCold(StreamWorkload):
    name = "stream-cold"
    cold = True


class StreamWarm(StreamWorkload):
    name = "stream-warm"
    cold = False

    def _interleaved(self, pairs: int, guarded_kwargs) -> Tuple[float, float]:
        """Median wall of plain passes and of passes given ``guarded_kwargs()``,
        run alternately."""
        plain, guarded = [], []
        for _ in range(pairs):
            plain.append(self._pass()[0])
            guarded.append(self._pass(**guarded_kwargs())[0])
        return statistics.median(plain), statistics.median(guarded)

    def guards(self) -> Dict[str, float]:
        """Checkpointing and telemetry must stay pure observers of a warm pass."""
        pairs = 1 if self.is_smoke else 10
        WORK_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            cadence = max(1, self.spec.fleet.ticks // 10)
            tracer = Tracer("checkpoint-guard")
            tracer.install([CHECKPOINT_BOUNDARY])
            try:
                plain, checkpointed = self._interleaved(
                    pairs,
                    lambda: {"checkpoint_dir": str(work / "ckpt"), "checkpoint_cadence": cadence},
                )
            finally:
                tracer.uninstall()
            saves = tracer.calls("fleet.checkpoint_save")
            out = {
                "fleet.checkpoint_overhead_share": checkpointed / plain - 1.0,
                "fleet.checkpoint_save_ms": (
                    1000.0 * tracer.busy("fleet.checkpoint_save") / saves if saves else 0.0
                ),
                "fleet.checkpoint_bytes": float(
                    sum(p.stat().st_size for p in (work / "ckpt").rglob("*") if p.is_file())
                ),
            }
            sessions: List[Telemetry] = []

            def telemetered() -> dict:
                sessions.append(Telemetry(out_dir=work / f"obs{len(sessions)}", name=self.name))
                return {"telemetry": sessions[-1]}

            plain, observed = self._interleaved(pairs, telemetered)
            start = perf_counter()
            written = sessions[-1].finalize()
            out["obs.finalize_ms"] = 1000.0 * (perf_counter() - start)
            for session in sessions[:-1]:
                session.finalize()
            out["obs.telemetry_overhead_share"] = observed / plain - 1.0
            with written["trace"].open(encoding="utf-8") as trace_file:
                out["obs.trace_records"] = float(sum(1 for _ in trace_file) - 1)  # header
            return out
        finally:
            shutil.rmtree(work, ignore_errors=True)


# -- serving -----------------------------------------------------------------------


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class ServeWorkload(TrainedWorkload):
    """``serve_workload(...)`` phases on a fresh ``DeviceFleet`` each.

    Open loop, one process, one event loop; latency is each
    ``ServeResult.latency_ms``, measured from the *scheduled* send time.
    """

    scenario = "serve-front-door"
    unit = "requests"
    nominal_units = 1.0
    # 2000 devices x 40 ticks x 0.5 arrivals = ~40 000 arrivals to draw from.
    full = {"fleet.n_devices": 2000}
    smoke = {
        "fleet.n_devices": 64,
        "data.weeks": 8,
        "detectors.0.epochs": 2,
        "detectors.1.epochs": 2,
        "detectors.2.epochs": 2,
        "policy.episodes": 2,
    }

    def _phase(self, tracer: Optional[Tracer], **serving_changes) -> OpResult:
        if self.is_smoke:
            # A smoke run checks the plumbing; no deadline of the host's clock
            # may fail it.
            serving_changes = {"max_age_ms": 600_000.0, "slo_p99_ms": 600_000.0, **serving_changes}
        serving = replace(self.spec.serve, **serving_changes)
        fleet = self._fleet()
        kwargs = dict(serving=serving, fleet=fleet, **self._system_kwargs())
        if tracer is None:
            report, results = serve_workload(**kwargs)
        else:
            with tracer.span("serving.serve_workload", units=serving.max_requests):
                report, results = serve_workload(**kwargs)
        served = [result for result in results if result.served]
        refused = len(results) - len(served)
        op = OpResult(
            latencies_ms=[result.latency_ms for result in served],
            attempted=int(report.n_submitted),
        )
        op.check(report.n_dropped == 0, f"{report.n_dropped} requests dropped")
        op.check(
            report.n_submitted == serving.max_requests == len(results),
            f"offered {serving.max_requests}, submitted {report.n_submitted}, "
            f"resolved {len(results)}",
        )
        op.check(
            report.n_served + report.n_rejected + report.n_shed + report.n_expired
            == report.n_submitted,
            "served + rejected + shed + expired != offered",
        )
        redirects = sum(tier.redirected for tier in report.tiers)
        op.check(redirects == 0, f"{redirects} failover redirects on a healthy run")
        # A broken conservation law fails every request; otherwise each
        # refused request is one failure.
        op.failed = op.attempted if op.failures else refused
        op.check(refused == 0, f"{refused} requests refused (rejected, shed or expired)")
        op.outcome = (
            report.n_submitted,
            report.n_served,
            report.n_rejected,
            report.n_shed,
            report.n_expired,
            *(tier.requests for tier in report.tiers),
            sum(result.prediction for result in served),
        )
        op.extras = {
            "report": report,
            "redirects": redirects,
            # Host time on top of the modelled delay the server held (none
            # to compare with when pacing is off).
            "overhead_ms": [
                result.latency_ms - serving.service_time_scale * result.simulated_delay_ms
                for result in served
                if serving.service_time_scale > 0
            ],
        }
        return op

    def layer_extras(
        self, untraced: Sequence[OpResult], traced: Sequence[OpResult], tracer: Tracer
    ) -> Dict[str, float]:
        latencies = [value for op in untraced for value in op.latencies_ms]
        overheads = [value for op in untraced for value in op.extras["overhead_ms"]]
        reports = [op.extras["report"] for op in untraced]
        batches = sum(report.n_batches for report in reports)
        return {
            "hec.failover_redirects": float(sum(op.extras["redirects"] for op in traced)),
            "serving.overhead_p50_ms": _percentile(overheads, 50),
            "serving.overhead_p99_ms": _percentile(overheads, 99),
            "serving.latency_p99_ms": _percentile(latencies, 99),
            "serving.latency_p999_ms": _percentile(latencies, 99.9),
            "serving.mean_batch": (
                sum(report.n_served for report in reports) / batches if batches else 0.0
            ),
            "serving.loadgen_lag_p99_ms": _percentile(
                tracer.samples.get("submit_lag_ms", ()), 99
            ),
        }


class ServePaced(ServeWorkload):
    """The registered pacing: service holds a tier slot for the modelled delay."""

    name = "serve-paced"
    host_bound = False
    #: 0.64 x the ~125 req/s the modelled hierarchy can serve.
    offered_rps = 80.0

    def op(self, index: int, tracer: Optional[Tracer] = None) -> OpResult:
        seconds = 3.0
        changes = {}
        if self.is_smoke:
            # A fifth of the modelled delays, so a phase ends in a fifth of the time.
            seconds, changes = 0.25, {"service_time_scale": 0.2}
        op = self._phase(
            tracer,
            offered_rps=self.offered_rps,
            max_requests=int(self.offered_rps * seconds),
            seed=index,
            **changes,
        )
        report = op.extras["report"]
        op.check(report.slo_met, f"p99 {report.latency.p99_ms:.0f} ms misses the SLO")
        if not report.slo_met:
            op.failed = op.attempted
        op.units = float(report.n_served)
        op.busy_s = float(report.duration_seconds)
        return op


class ServeUnpaced(ServeWorkload):
    """No simulated sleep: the front door's own Python is the bottleneck.

    Even operations offer a fixed rate the server keeps up with (latency);
    odd operations offer everything at once (throughput).
    """

    name = "serve-unpaced"
    #: Rate of the latency phases; about a third of the flood throughput.
    offered_rps = 8000.0
    #: A quarter second of traffic per latency sample, 200 requests beyond p90.
    latency_chunk = 2000
    #: Candidate rates of the traced run's limit search, and its latency limit.
    limit_rates = (4000.0, 8000.0, 16000.0)
    limit_p90_ms = 25.0

    def _requests(self, full: int) -> int:
        return min(full, self.expected_arrivals) if not self.is_smoke else 400

    def _unpaced(self, tracer: Optional[Tracer], rate: float, requests: int, seed: int) -> OpResult:
        # The queue holds every request and none ages out: a stall of the host
        # (256 ms would overflow a 2048-request queue at 8000 req/s, and did,
        # twice in sixty runs) then shows as latency, not as refusals.
        return self._phase(
            tracer,
            service_time_scale=0.0,
            offered_rps=rate,
            max_requests=requests,
            queue_capacity=requests,
            max_age_ms=600_000.0,
            slo_p99_ms=600_000.0,
            seed=seed,
        )

    def op(self, index: int, tracer: Optional[Tracer] = None) -> OpResult:
        if index % 2 == 0:
            rate = self.offered_rps / 4 if self.is_smoke else self.offered_rps
            return self._unpaced(tracer, rate, self._requests(4_000), index)
        op = self._unpaced(tracer, 200_000.0, self._requests(5_000), index)
        report = op.extras["report"]
        op.units = float(report.n_served)
        op.busy_s = float(report.duration_seconds)
        op.latencies_ms = ()  # queueing behind the flood, not service latency
        return op

    def guards(self) -> Dict[str, float]:
        """Highest candidate rate served with p90 inside the limit."""
        best = 0.0
        for rate in self.limit_rates:
            if self.is_smoke:
                rate /= 4
            op = self._unpaced(None, rate, self._requests(8_000), seed=int(rate))
            if not op.failures and _percentile(op.latencies_ms, 90) <= self.limit_p90_ms:
                best = max(best, rate)
        return {"serving.max_rate_in_limit_rps": best}


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        OfflineUnivariate,
        OfflineMultivariate,
        StreamCold,
        StreamWarm,
        ServePaced,
        ServeUnpaced,
    )
}
