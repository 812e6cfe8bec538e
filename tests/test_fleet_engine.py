"""Tests for the streaming engines and the runner's ``stream`` stage.

The central pin is the acceptance criterion: a
:class:`~repro.fleet.engine.FleetEngine` over a spec with ``n_shards=K``
produces a :class:`~repro.fleet.report.FleetReport` equal, field for field, to
the one-shard engine's for every K.  Device
streams are partition-independent, delay sums are exact integers and the delay
sample is keyed by window identity, so no statistic depends on the shards.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.fleet.devices import WindowPool
from repro.fleet.engine import FleetEngine

#: Shrink the burst-storm scenario to test size (training and streaming).
TINY = {
    "data.weeks": "10",
    "detectors.0.epochs": "3",
    "detectors.1.epochs": "3",
    "detectors.2.epochs": "3",
    "policy.episodes": "3",
    "fleet.n_devices": "16",
    "fleet.ticks": "12",
    "fleet.metrics_window": "4",
    "fleet.arrival_rate": "1.0",
}

#: The drift and churn scenarios at test size.
DRIFT_TINY = {
    "data.weeks": "10", "detectors.0.epochs": "3",
    "detectors.1.epochs": "3", "detectors.2.epochs": "3",
    "policy.episodes": "3",
    "fleet.n_devices": "40", "fleet.ticks": "32",
    "fleet.metrics_window": "8", "fleet.arrival_rate": "1.0",
    "fleet.mutators.0.drift_per_tick": "0.08",
}
CHURN_TINY = {
    "data.weeks": "8", "detectors.0.epochs": "2",
    "detectors.1.epochs": "2", "detectors.2.epochs": "2",
    "policy.episodes": "2",
    "fleet.n_devices": "20", "fleet.ticks": "16",
    "fleet.mutators.0.churn_fraction": "1.0",
}


@pytest.fixture(scope="module")
def trained():
    """A tiny trained fleet scenario: (spec, runner with train_policy done)."""
    spec = apply_overrides(get_scenario("fleet-burst-storm"), TINY)
    runner = ExperimentRunner(spec)
    for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
        getattr(runner, stage)()
    return spec, runner


def _engine_kwargs(spec, runner):
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


def _sharded(kwargs, n_shards, **extra):
    """A :class:`FleetEngine` streaming ``kwargs``' spec as ``n_shards`` shards."""
    return FleetEngine(**{**kwargs, **extra, "spec": replace(kwargs["spec"], n_shards=n_shards)})


class TestFleetEngine:
    def test_run_is_deterministic(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        assert FleetEngine(**kwargs).run() == FleetEngine(**kwargs).run()

    def test_report_shape(self, trained):
        spec, runner = trained
        report = FleetEngine(**_engine_kwargs(spec, runner)).run()
        assert report.name == spec.name
        assert report.n_devices == spec.fleet.n_devices
        assert report.ticks == spec.fleet.ticks
        assert report.n_windows > 0
        assert len(report.windowed) == 3  # 12 ticks / metrics_window 4
        assert [t.tier for t in report.tiers] == list(spec.topology.tier_names)
        assert sum(t.requests for t in report.tiers) == report.n_windows
        assert report.delay.samples_seen == report.n_windows

    def test_burst_storm_visible_in_windowed_metrics(self, trained):
        """Bursts (ticks 0-3 of every 16) raise the windowed anomaly fraction."""
        spec, runner = trained
        report = FleetEngine(**_engine_kwargs(spec, runner)).run()
        burst_block, calm_block = report.windowed[0], report.windowed[1]
        assert burst_block.anomaly_fraction > calm_block.anomaly_fraction

    def test_policy_layer_mismatch_rejected(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        kwargs["tier_names"] = ("too", "few")
        with pytest.raises(ConfigurationError, match="tier names"):
            FleetEngine(**kwargs)


class TestScenarioStreams:
    """Each built-in fleet scenario's mutators show up in its online metrics,
    and its report equals the recorded one."""

    def test_drift_scenario_degrades_windowed_accuracy(self, golden):
        spec = apply_overrides(get_scenario("fleet-1k-drift"), DRIFT_TINY)
        report = ExperimentRunner(spec).run_fleet()
        assert report.windowed[0].accuracy > report.windowed[-1].accuracy
        golden("fleet/report-fleet-1k-drift.json", report.to_dict())

    def test_churn_scenario_reports_offline_device_ticks(self, golden):
        spec = apply_overrides(get_scenario("fleet-churn-mixed-detectors"), CHURN_TINY)
        report = ExperimentRunner(spec).run_fleet()
        assert report.offline_device_ticks > 0
        total = report.online_device_ticks + report.offline_device_ticks
        assert total == 20 * 16
        golden("fleet/report-fleet-churn-mixed-detectors.json", report.to_dict())


class TestShardedEquivalence:
    @pytest.mark.parametrize("available", [1, 2], ids=["serial", "forked"])
    @pytest.mark.parametrize("reservoir_size", [2048, 16])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_sharded_report_equals_unsharded(
        self, trained, cpus, n_shards, reservoir_size, available
    ):
        """Every field, bit for bit, for any partitioning, serial or forked:
        counts, exact nanosecond delay sums and the keyed bottom-k delay
        percentiles — also when the sample holds a sixteenth of the stream's
        windows."""
        spec, runner = trained
        cpus(available)
        kwargs = _engine_kwargs(spec, runner)
        kwargs["spec"] = replace(spec.fleet, reservoir_size=reservoir_size, n_shards=1)
        unsharded = FleetEngine(**kwargs)
        sharded = _sharded(kwargs, n_shards)
        assert sharded.run() == unsharded.run()
        # The sample itself, priorities included (tiers share delay values,
        # so equal percentiles alone would not tell two samples apart).
        a, b = (engine.run_metrics().to_payload() for engine in (sharded, unsharded))
        assert sorted(a) == sorted(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_multi_shard_deterministic(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        first = _sharded(kwargs, 2).run()
        second = _sharded(kwargs, 2).run()
        assert first == second

    def test_parallel_and_sequential_shards_agree(self, trained, cpus):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        cpus(2)
        parallel = _sharded(kwargs, 2).run()
        cpus(1)
        sequential = _sharded(kwargs, 2).run()
        assert parallel == sequential

    def test_resumed_shards_never_pool(self, trained, cpus, monkeypatch, tmp_path):
        """With CPUs to spare a fresh multi-shard run forks its pool; a resume
        restores each shard from its own store, in-process."""
        from repro.fleet import sharding

        spec, runner = trained
        engine = _sharded(_engine_kwargs(spec, runner), 2, checkpoint_dir=str(tmp_path))
        pooled = []
        run_pooled = sharding.run_pooled
        monkeypatch.setattr(
            sharding, "run_pooled", lambda payloads: pooled.append(1) or run_pooled(payloads)
        )
        cpus(2)
        engine.run()
        engine.resume()
        assert pooled == [1]

    def test_more_shards_than_devices_rejected(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        with pytest.raises(ConfigurationError, match="n_shards"):
            _sharded(kwargs, 999)

    def test_jittery_links_rejected_for_multi_shard(self, trained):
        """Per-transfer jitter draws would depend on the partitioning."""
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        link = kwargs["system"].topology.links[0]
        link.jitter_ms = 1.5
        try:
            with pytest.raises(ConfigurationError, match="jitter-free"):
                _sharded(kwargs, 2)
            # A single shard stays allowed.
            _sharded(kwargs, 1)
        finally:
            link.jitter_ms = 0.0


class TestRunnerStreamStage:
    def test_stream_requires_train_policy(self):
        runner = ExperimentRunner(apply_overrides(get_scenario("fleet-burst-storm"), TINY))
        with pytest.raises(ConfigurationError, match="must run before"):
            runner.stream()

    def test_stream_requires_fleet_node(self):
        spec = apply_overrides(
            get_scenario("univariate-power"),
            {"data.weeks": "10", "policy.episodes": "2", "detectors.0.epochs": "2",
             "detectors.1.epochs": "2", "detectors.2.epochs": "2"},
        )
        runner = ExperimentRunner(spec)
        for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
            getattr(runner, stage)()
        with pytest.raises(ConfigurationError, match="no fleet node"):
            runner.stream()

    def test_stream_stage_matches_direct_engine(self, trained):
        spec, runner = trained
        direct = FleetEngine(**_engine_kwargs(spec, runner)).run()
        report = runner.stream()
        assert report == direct
        assert runner.state.fleet_report is report
        # run_fleet() after stream is a no-op returning the same report.
        assert runner.run_fleet() is report

    def test_run_fleet_from_scratch_uses_sharded_engine(self):
        spec = apply_overrides(
            get_scenario("fleet-burst-storm"), {**TINY, "fleet.n_shards": "2"}
        )
        report = ExperimentRunner(spec).run_fleet()
        assert report.n_windows > 0


class TestColumnarEngine:
    """The engine's reports are pinned to recorded goldens."""

    def test_report_matches_golden(self, trained, golden):
        spec, runner = trained
        report = FleetEngine(**_engine_kwargs(spec, runner)).run()
        golden("fleet/report-fleet-burst-storm.json", report.to_dict())

    def test_two_shard_report_matches_golden(self, trained, golden):
        spec, runner = trained
        report = _sharded(_engine_kwargs(spec, runner), 2).run()
        golden("fleet/report-fleet-burst-storm.json", report.to_dict())

    def test_profiler_accounts_the_run(self, trained):
        from repro.fleet.engine import STAGES
        from repro.obs.export import Telemetry

        spec, runner = trained
        telemetry = Telemetry()
        report = FleetEngine(**_engine_kwargs(spec, runner), telemetry=telemetry).run()
        registry = telemetry.registry
        total = registry.get("fleet_run_seconds_total").value()
        assert total > 0
        assert registry.get("fleet_windows_total").value() == report.n_windows
        stages = registry.get("fleet_stage_seconds_total")
        assert stages.value(stage="arrivals") > 0
        assert stages.value(stage="detect") > 0
        assert sum(stages.value(stage=stage) for stage in STAGES) <= total


class TestPoolFallbackWarning:
    """Satellite: a degraded pool must be loud, and loud exactly once."""

    def test_pool_failure_warns_once_and_falls_back(self, trained, cpus, monkeypatch):
        import warnings as warnings_module

        from repro.fleet import sharding

        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        cpus(1)
        reference = _sharded(kwargs, 2).run()

        def broken(*args, **kw):
            raise OSError("fork refused for the test")

        monkeypatch.setattr(sharding, "run_pooled", broken)
        monkeypatch.setattr(sharding, "_pool_fallback_warned", False)
        cpus(2)

        with pytest.warns(RuntimeWarning, match="OSError: fork refused"):
            degraded = _sharded(kwargs, 2).run()
        assert degraded == reference

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            again = _sharded(kwargs, 2).run()
        assert again == reference


class TestShardingInfrastructure:
    def test_pooled_run_never_streams_a_stale_fork(self, trained, cpus):
        """A pooled run owns its pool, so it can never stream a stale fork:
        overwrite the policy's output layer in place between two pooled runs
        (no version bump, nothing to invalidate) and the second run equals the
        serial report of the mutated system."""
        import multiprocessing

        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        cpus(2)
        before = _sharded(kwargs, 2).run()
        assert multiprocessing.active_children() == []
        params = kwargs["policy"].model.layers[-1].params
        saved = {name: value.copy() for name, value in params.items()}
        try:
            params["kernel"][...] = 0.0
            params["bias"][...] = 0.0
            params["bias"][-1] = 50.0  # every context now picks the top tier
            pooled = _sharded(kwargs, 2).run()
            cpus(1)
            serial = _sharded(kwargs, 2).run()
        finally:
            for name, value in saved.items():
                params[name][...] = value
        assert pooled == serial
        assert pooled != before
        assert [tier.requests for tier in pooled.tiers][:-1] == [0, 0]
        assert multiprocessing.active_children() == []

    def test_pool_workers_do_not_inherit_the_sigterm_cleanup_handler(
        self, trained, monkeypatch
    ):
        """The parent kills workers on SIGTERM through a handler that fork
        hands to them too; a worker that ran it instead of dying would outlive
        the kill.  Workers report the disposition they stream under."""
        import signal

        from repro.fleet import sharding
        from repro.fleet.faults import WorkerCrash

        def report_disposition(payload, resume=False):
            raise WorkerCrash(repr(signal.getsignal(signal.SIGTERM)))

        spec, runner = trained
        engine = _sharded(_engine_kwargs(spec, runner), 2)
        monkeypatch.setattr(sharding, "run_shard", report_disposition)
        previous = signal.getsignal(signal.SIGTERM)
        crashes = sharding.run_pooled(sharding._shard_payloads(engine))
        assert [str(crash) for crash in crashes] == [repr(signal.SIG_DFL)] * 2
        # ... and the parent's own disposition is back once the pool is gone.
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_shard_tasks_ship_an_index_not_state(self, trained, monkeypatch):
        """State reaches the workers by inheritance (the pool's initializer
        arguments), so the message pickled per task stays tiny."""
        import pickle
        from concurrent.futures import ProcessPoolExecutor

        from repro.fleet import sharding

        spec, runner = trained
        engine = _sharded(_engine_kwargs(spec, runner), 2)
        sizes = []
        submit = ProcessPoolExecutor.submit

        def measuring_submit(self, fn, *args, **kwargs):
            sizes.append(len(pickle.dumps((fn, args, kwargs))))
            return submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", measuring_submit)
        results = sharding.run_pooled(sharding._shard_payloads(engine))
        assert len(results) == len(sizes) == 2
        assert max(sizes) < 4096

    def test_compact_metrics_payload_round_trips(self, trained):
        from repro.fleet.metrics import StreamingMetrics

        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        metrics = FleetEngine(**kwargs).run_metrics()
        payload = metrics.to_payload()
        rebuilt = StreamingMetrics.from_payload(payload).to_payload()
        merged = StreamingMetrics.merge([metrics]).to_payload()
        assert sorted(rebuilt) == sorted(merged) == sorted(payload)
        for key, value in payload.items():
            assert np.array_equal(rebuilt[key], value), key
            assert np.array_equal(merged[key], value), key

    def test_worker_application_error_is_not_a_pool_failure(
        self, trained, cpus, monkeypatch
    ):
        """ConfigurationError from a worker propagates instead of warning+serial."""
        from repro.fleet import sharding

        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)

        def broken(payload, resume=False):
            raise ConfigurationError("bad spec inside the worker")

        monkeypatch.setattr(sharding, "run_shard", broken)  # inherited by fork
        monkeypatch.setattr(sharding, "_pool_fallback_warned", False)
        cpus(2)
        with pytest.raises(ConfigurationError, match="bad spec"):
            _sharded(kwargs, 2).run()
        assert sharding._pool_fallback_warned is False
