"""End-to-end pins for the unified telemetry layer.

The hard contract of the observability PR: **telemetry is a pure observer**.
Nothing it records touches an RNG or the experiment state, so a run with
telemetry enabled is bit-identical to the same run with it disabled.  This
module pins that for every instrumented subsystem:

* the streaming fleet engine (serial and sharded) — full ``FleetReport``
  equality, adaptation timeline included;
* the serving front door — equality of the deterministic projection (counts,
  quality, tier routing, swaps and the simulated-delay aggregate; wall-clock
  latencies are real time and excluded by construction);
* the adaptive controller — full report equality plus the lifecycle linkage
  (retrain spans parented under their tick, gate/swap events stamped with
  the retrain span's ids);
* faults and checkpoints — equality under injection, with activations and
  save/load visible as events and counters.

It also pins the artifact layer (trace.jsonl header + schema, metrics.json
payload round-trip, Prometheus rendering, the summarize digest) and the CLI
surface (``--telemetry``, ``--profile`` over the shared registry,
``repro obs summarize``).
"""

import json
import multiprocessing
import re
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.fleet import sharding
from repro.fleet.devices import DeviceFleet, WindowPool
from repro.fleet.engine import STAGES, FleetEngine
from repro.fleet.faults import FaultEvent, FaultSpec
from repro.obs.export import Telemetry, read_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spec import ObsSpec
from repro.obs.summary import summarize_trace
from repro.serving.run import serve_workload

#: Wall-clock metric families legitimately differ between a sharded and a
#: serial run (and between any two runs); everything else must merge exactly.
_CLOCK_FREE = ("seconds",)

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

SERVE_TINY = {
    "data.weeks": "8",
    "detectors.0.epochs": "2",
    "detectors.1.epochs": "2",
    "detectors.2.epochs": "2",
    "policy.episodes": "2",
    "fleet.n_devices": "64",
    "fleet.ticks": "10",
    "fleet.arrival_rate": "1.0",
    "serve.max_requests": "40",
    "serve.offered_rps": "200",
}

ADAPT_TINY = {
    "data.weeks": "12",
    "detectors.0.epochs": "3",
    "detectors.1.epochs": "3",
    "detectors.2.epochs": "3",
    "policy.episodes": "3",
    "fleet.n_devices": "64",
    "fleet.arrival_rate": "1.0",
    "adapt.min_retrain_windows": "32",
}


@pytest.fixture(scope="module")
def fleet_trained():
    spec = apply_overrides(get_scenario("fleet-burst-storm"), TINY)
    runner = ExperimentRunner(spec)
    for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
        getattr(runner, stage)()
    return spec, runner


@pytest.fixture(scope="module")
def serve_trained():
    spec = apply_overrides(get_scenario("serve-front-door"), SERVE_TINY)
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


@pytest.fixture(scope="module")
def fleet_reports(fleet_trained, tmp_path_factory):
    """(baseline report, telemetered report, telemetry, artifact paths)."""
    spec, runner = fleet_trained
    baseline = FleetEngine(**_engine_kwargs(spec, runner)).run()
    out_dir = tmp_path_factory.mktemp("telemetry")
    telemetry = Telemetry(out_dir=out_dir, spec=ObsSpec(dir=str(out_dir)),
                          name=spec.name)
    traced = FleetEngine(**_engine_kwargs(spec, runner), telemetry=telemetry).run()
    paths = telemetry.finalize()
    return baseline, traced, telemetry, paths


class TestFleetBitIdentity:
    def test_telemetry_run_is_bit_identical(self, fleet_reports):
        baseline, traced, _telemetry, _paths = fleet_reports
        assert traced == baseline  # dataclass equality: every field

    def test_sharded_telemetry_run_is_bit_identical(self, fleet_trained):
        spec, runner = fleet_trained
        kwargs = _engine_kwargs(spec, runner)
        baseline = _sharded(kwargs, 2).run()
        telemetry = Telemetry(name=spec.name)
        traced = _sharded(kwargs, 2, telemetry=telemetry).run()
        assert traced == baseline
        # Each shard ran its own child session; the parent's registry holds
        # the fold of both, so counts still add up to the merged totals.
        family = telemetry.registry.get("fleet_windows_total")
        assert family is not None and family.value() == traced.n_windows

    def test_telemetry_no_longer_forces_serial_shards(self, fleet_trained, cpus, monkeypatch):
        # Child shard sessions fold through the registry merge, so only the
        # CPU count decides whether shards fork.
        spec, runner = fleet_trained
        kwargs = _engine_kwargs(spec, runner)
        pooled = []
        run_pooled = sharding.run_pooled
        monkeypatch.setattr(
            sharding, "run_pooled", lambda payloads: pooled.append(1) or run_pooled(payloads)
        )
        cpus(1)
        _sharded(kwargs, 2, telemetry=Telemetry()).run()
        assert pooled == []
        cpus(2)
        _sharded(kwargs, 2, telemetry=Telemetry()).run()
        assert pooled == [1]

    def test_faulted_checkpointed_run_is_bit_identical(self, fleet_trained, tmp_path):
        spec, runner = fleet_trained
        kwargs = _engine_kwargs(spec, runner)
        faults = FaultSpec(events=(
            FaultEvent(kind="link-degrade", at_tick=3, until_tick=8,
                       link=0, factor=4.0),
        ))
        baseline = FleetEngine(
            **kwargs, faults=faults,
            checkpoint_dir=str(tmp_path / "ck-a"), checkpoint_cadence=4,
        ).run()
        telemetry = Telemetry(name=spec.name)
        traced = FleetEngine(
            **kwargs, faults=faults, telemetry=telemetry,
            checkpoint_dir=str(tmp_path / "ck-b"), checkpoint_cadence=4,
        ).run()
        assert traced == baseline
        names = [e["name"] for e in telemetry.events]
        assert names.count("fault.link") == 1  # activation edge only
        assert names.count("checkpoint.save") == 2  # ticks 4 and 8
        # 5 active ticks: 3..7 (until_tick is exclusive).
        active = telemetry.registry.get("fleet_fault_active_ticks_total")
        assert active.value(kind="link-degrade") == 5
        assert telemetry.registry.get("checkpoint_saves_total").value() == 2
        assert telemetry.registry.get("checkpoint_saved_bytes_total").value() > 0

    def test_plain_run_times_nothing(self, fleet_trained, tmp_path, monkeypatch):
        # Without a session the loop, the fault hook and the checkpoint
        # save/load never read the clock.  The same run with a session does,
        # so the probe is live.
        from repro.fleet import engine as engine_module

        spec, runner = fleet_trained
        faults = FaultSpec(events=(
            FaultEvent(kind="link-degrade", at_tick=3, until_tick=8,
                       link=0, factor=4.0),
        ))
        calls = []
        clock = engine_module.perf_counter

        def counting_clock():
            calls.append(None)
            return clock()

        monkeypatch.setattr(engine_module, "perf_counter", counting_clock)

        def clock_reads(name, **telemetry):
            calls.clear()
            engine = FleetEngine(
                **_engine_kwargs(spec, runner), faults=faults,
                checkpoint_dir=str(tmp_path / name), checkpoint_cadence=4, **telemetry,
            )
            engine.run()
            engine.resume()  # restores the tick-8 checkpoint
            return len(calls)

        assert clock_reads("plain") == 0
        assert clock_reads("telemetered", telemetry=Telemetry(name=spec.name)) > 0


class TestShardedTelemetry:
    """Cross-shard telemetry: child sessions, shard sinks, deterministic merge."""

    def test_merged_shard_registry_equals_serial_run_registry(self, fleet_trained, cpus):
        spec, runner = fleet_trained
        kwargs = _engine_kwargs(spec, runner)
        serial_tel = Telemetry(name=spec.name)
        FleetEngine(**kwargs, telemetry=serial_tel).run()
        sharded_tel = Telemetry(name=spec.name)
        cpus(1)
        _sharded(kwargs, 2, telemetry=sharded_tel).run()
        assert sharded_tel.registry.project(
            drop_substrings=_CLOCK_FREE
        ) == serial_tel.registry.project(drop_substrings=_CLOCK_FREE)

    @pytest.mark.parametrize("on_disk", [False, True], ids=["in-memory", "on-disk"])
    def test_child_session_is_scoped_and_folds_back(self, on_disk, tmp_path):
        out = tmp_path / "obs" if on_disk else None
        parent = Telemetry(out_dir=out, name="run")
        child = parent.child(3)
        assert (child.name, child.scope) == ("run/shard-03", "s03-")
        assert child.out_dir == (out / "shard-03" if on_disk else None)
        with child.tracer.span("work"):
            pass
        parent.absorb_shard(child.shard_payload())
        parent.finalize()
        spans = read_trace(out / "shard-03" / "trace.jsonl") if on_disk else parent.spans
        assert [(r["name"], r["span_id"][:4]) for r in spans if r.get("kind") == "span"] == [
            ("work", "s03-")
        ]

    def test_shard_sinks_mirror_checkpoint_layout(self, fleet_trained, cpus, tmp_path):
        spec, runner = fleet_trained
        kwargs = _engine_kwargs(spec, runner)
        out = tmp_path / "obs"
        telemetry = Telemetry(
            out_dir=out, spec=ObsSpec(dir=str(out)), name=spec.name
        )
        cpus(1)
        report = _sharded(kwargs, 2, telemetry=telemetry).run()
        paths = telemetry.finalize()
        shard_windows = 0
        for index in (0, 1):
            shard_dir = out / f"shard-{index:02d}"
            assert (shard_dir / "trace.jsonl").is_file()
            assert (shard_dir / "metrics.json").is_file()
            records = read_trace(shard_dir / "trace.jsonl")
            assert records[0]["kind"] == "header"
            assert records[0]["scope"] == f"s{index:02d}-"
            spans = [r for r in records if r["kind"] == "span"]
            assert spans
            # Shard-scoped ids: merged traces can never collide.
            assert all(
                r["span_id"].startswith(f"s{index:02d}-") for r in spans
            )
            shard_registry = MetricsRegistry.from_payload(
                json.loads((shard_dir / "metrics.json").read_text())
            )
            shard_windows += shard_registry.get("fleet_windows_total").value()
        # The parent trace records each fold, in shard order.
        parent_records = read_trace(paths["trace"])
        merges = [r for r in parent_records if r.get("name") == "shard.merge"]
        assert [m["shard"] for m in merges] == [0, 1]
        # And the parent's finalized registry is the fold of both shards.
        merged = MetricsRegistry.from_payload(
            json.loads(paths["metrics_json"].read_text())
        )
        assert merged.get("fleet_windows_total").value() == shard_windows
        assert shard_windows == report.n_windows

    def test_summarize_aggregates_sharded_run_dir(self, fleet_trained, cpus, tmp_path):
        spec, runner = fleet_trained
        kwargs = _engine_kwargs(spec, runner)
        out = tmp_path / "obs"
        telemetry = Telemetry(
            out_dir=out, spec=ObsSpec(dir=str(out)), name=spec.name
        )
        cpus(1)
        _sharded(kwargs, 2, telemetry=telemetry).run()
        telemetry.finalize()
        digest = summarize_trace(out)
        assert "tier utilization:" in digest
        # Tick spans live in the shard sinks; the directory digest sees them.
        assert "fleet.tick" in digest

    def test_summarize_merges_shard_registries_without_parent_metrics(
        self, fleet_trained, cpus, tmp_path
    ):
        spec, runner = fleet_trained
        out = tmp_path / "obs"
        telemetry = Telemetry(out_dir=out, spec=ObsSpec(dir=str(out)), name=spec.name)
        cpus(1)
        _sharded(_engine_kwargs(spec, runner), 2, telemetry=telemetry).run()
        telemetry.finalize()
        (out / "metrics.json").unlink()
        expected = {}
        for index in (0, 1):
            shard = MetricsRegistry.from_payload(
                json.loads((out / f"shard-{index:02d}" / "metrics.json").read_text())
            )
            for tier in spec.topology.tier_names:
                count = shard.get("fleet_tier_windows_total").value(tier=tier)
                expected[tier] = expected.get(tier, 0) + int(count)
        digest = summarize_trace(out)
        shown = dict(re.findall(r"^  (\S+) +(\d+)  \(", digest, re.MULTILINE))
        assert {tier: int(count) for tier, count in shown.items()} == expected
        assert sum(expected.values()) > 0

    def test_in_memory_children_fold_spans_into_parent(self, fleet_trained, cpus):
        spec, runner = fleet_trained
        kwargs = _engine_kwargs(spec, runner)
        telemetry = Telemetry(name=spec.name)
        cpus(1)
        _sharded(kwargs, 2, telemetry=telemetry).run()
        ids = [span["span_id"] for span in telemetry.spans]
        assert any(span_id.startswith("s00-") for span_id in ids)
        assert any(span_id.startswith("s01-") for span_id in ids)
        assert len(ids) == len(set(ids))

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_pooled_shards_match_serial_shards(self, fleet_trained, cpus):
        spec, runner = fleet_trained
        kwargs = _engine_kwargs(spec, runner)
        serial_tel = Telemetry(name=spec.name)
        cpus(1)
        serial = _sharded(kwargs, 2, telemetry=serial_tel).run()
        pooled_tel = Telemetry(name=spec.name)
        cpus(2)
        pooled = _sharded(kwargs, 2, telemetry=pooled_tel).run()
        assert pooled == serial
        assert pooled_tel.registry.project(
            drop_substrings=_CLOCK_FREE
        ) == serial_tel.registry.project(drop_substrings=_CLOCK_FREE)
        assert multiprocessing.active_children() == []


class TestFleetTelemetryContent:
    def test_counters_match_the_report(self, fleet_reports):
        _baseline, traced, telemetry, _paths = fleet_reports
        registry = telemetry.registry
        assert registry.get("fleet_windows_total").value() == traced.n_windows
        tiers = registry.get("fleet_tier_windows_total")
        for usage in traced.tiers:
            assert tiers.value(tier=usage.tier) == usage.requests
        assert registry.get("fleet_run_seconds_total").value() > 0

    def test_engine_auto_creates_registry_backed_profiler(self, fleet_reports):
        _baseline, _traced, telemetry, _paths = fleet_reports
        stage_family = telemetry.registry.get("fleet_stage_seconds_total")
        assert stage_family is not None
        recorded = {key[0] for key in stage_family._children}
        assert recorded == set(STAGES)

    def test_trace_artifacts_on_disk(self, fleet_reports, fleet_trained):
        spec, _runner = fleet_trained
        _baseline, traced, telemetry, paths = fleet_reports
        records = read_trace(paths["trace"])
        assert records[0]["kind"] == "header"
        assert records[0]["name"] == spec.name
        ticks = [r for r in records if r.get("name") == "fleet.tick"]
        assert len(ticks) == spec.fleet.ticks
        run_span = next(r for r in records if r.get("name") == "fleet.run")
        assert all(t["parent_id"] == run_span["span_id"] for t in ticks)
        assert run_span["attributes"]["windows"] == traced.n_windows
        # Every tick span carries the per-stage wall-clock breakdown, and the
        # spans add up to the stage counters: one measurement, two views.
        assert all(f"{stage}_ms" in ticks[0]["attributes"] for stage in STAGES)
        stage_seconds = telemetry.registry.get("fleet_stage_seconds_total")
        for stage in STAGES:
            spans_ms = sum(tick["attributes"][f"{stage}_ms"] for tick in ticks)
            assert spans_ms == pytest.approx(stage_seconds.value(stage=stage) * 1000.0)

    def test_metrics_artifacts_round_trip(self, fleet_reports):
        _baseline, traced, telemetry, paths = fleet_reports
        payload = json.loads(paths["metrics_json"].read_text())
        rebuilt = MetricsRegistry.from_payload(payload)
        assert rebuilt.to_payload() == telemetry.registry.to_payload()
        prom = paths["metrics_prom"].read_text()
        line = re.compile(
            r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
            r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9].*)$"
        )
        assert prom and all(line.match(ln) for ln in prom.splitlines())
        assert f"fleet_windows_total {traced.n_windows}" in prom

    def test_summarize_digest(self, fleet_reports, fleet_trained):
        spec, _runner = fleet_trained
        _baseline, _traced, _telemetry, paths = fleet_reports
        digest = summarize_trace(paths["trace"])
        assert f"telemetry digest: {spec.name}" in digest
        assert "top 10 spans by duration:" in digest
        assert "tier utilization:" in digest


class TestServingBitIdentity:
    @staticmethod
    def _serve(trained, telemetry=None, **overrides):
        spec, runner = trained
        state = runner.state
        pool = WindowPool.from_labeled(state.standardized_all)
        return serve_workload(
            system=state.system,
            policy=state.policy,
            context_extractor=state.context_extractor,
            serving=replace(spec.serve, **overrides),
            fleet=DeviceFleet(spec.fleet, pool, master_seed=spec.seed),
            master_seed=spec.seed,
            name=spec.name,
            tier_names=spec.topology.tier_names,
            telemetry=telemetry,
        )

    @staticmethod
    def _projection(report, results):
        """The deterministic slice of a serving run (no wall-clock fields)."""
        return (
            report.n_submitted, report.n_served, report.n_rejected,
            report.n_shed, report.n_expired, report.n_dropped,
            report.accuracy, report.f1,
            tuple((t.tier, t.requests) for t in report.tiers),
            report.n_swaps, report.swap_versions,
            report.mean_simulated_delay_ms,
            tuple((r.device_id, r.status, r.layer, r.prediction, r.shed_reason)
                  for r in results),
        )

    def test_telemetry_run_matches_deterministic_projection(self, serve_trained):
        # Every request due at once and no modelled sleep: batch boundaries
        # and completion order follow from (spec, seed), so the projections
        # are equal by construction, not by the host's scheduling.
        schedule = dict(offered_rps=1e9, service_time_scale=0.0)
        baseline = self._projection(*self._serve(serve_trained, **schedule))
        telemetry = Telemetry()
        traced_report, traced_results = self._serve(serve_trained, telemetry, **schedule)
        assert self._projection(traced_report, traced_results) == baseline

    def test_request_spans_and_status_counters(self, serve_trained):
        telemetry = Telemetry()
        report, _results = self._serve(serve_trained, telemetry)
        statuses = telemetry.registry.get("serve_requests_total")
        assert statuses.value(status="submitted") == report.n_submitted
        assert statuses.value(status="served") == report.n_served
        tiers = telemetry.registry.get("serve_tier_requests_total")
        for usage in report.tiers:
            assert tiers.value(tier=usage.tier) == usage.requests
        requests = [s for s in telemetry.spans if s["name"] == "serve.request"]
        assert len(requests) == report.n_submitted
        assert all(s["attributes"]["status"] == "served" for s in requests)
        # serve.batch spans are tier batches (one detection call each, up to
        # max_batch rows regrouped from the micro-batches' tier shares); the
        # tier-batch size histogram observes each once, and their sizes add
        # back up to the served total.
        batches = [s for s in telemetry.spans if s["name"] == "serve.batch"]
        sizes = telemetry.registry.get("serve_tier_batch_size").snapshot()
        assert sizes["count"] == len(batches) > 0
        assert sizes["sum"] == sum(s["attributes"]["n"] for s in batches) == report.n_served

    def test_overload_events_alongside_the_warning(self, serve_trained):
        telemetry = Telemetry()
        with pytest.warns(RuntimeWarning, match="serving ingress overloaded"):
            report, _results = self._serve(
                serve_trained, telemetry,
                offered_rps=5000.0, queue_capacity=8, shed_policy="reject-new",
            )
        assert report.n_rejected > 0
        overloads = [e for e in telemetry.events if e["name"] == "serve.overload"]
        assert len(overloads) == report.n_rejected
        assert all(e["reason"] == "rejected" for e in overloads)
        assert all(e["policy"] == "reject-new" for e in overloads)
        statuses = telemetry.registry.get("serve_requests_total")
        assert statuses.value(status="rejected") == report.n_rejected

    def test_overload_telemetry_preserves_conservation(self, serve_trained):
        # Under overload the shed/served split is wall-clock-dependent (queue
        # eviction races dispatch) with or without telemetry, so the pin here
        # is the zero-drop conservation contract and event/counter agreement,
        # not projection equality.
        telemetry = Telemetry()
        with pytest.warns(RuntimeWarning):
            report, results = self._serve(
                serve_trained, telemetry,
                offered_rps=5000.0, queue_capacity=8, shed_policy="shed-oldest",
            )
        assert report.n_submitted == len(results) == 40
        assert report.n_dropped == 0
        assert report.n_shed > 0
        sheds = [e for e in telemetry.events
                 if e["name"] == "serve.overload" and e["reason"] == "shed"]
        assert len(sheds) == report.n_shed
        assert all(e["policy"] == "shed-oldest" for e in sheds)
        shed_spans = [s for s in telemetry.spans
                      if s["name"] == "serve.request"
                      and s["attributes"].get("status") == "shed"]
        assert len(shed_spans) == report.n_shed

    def test_burn_rate_alert_fires_under_overload_and_resolves(self, serve_trained):
        from repro.obs.alerts import default_serving_rules
        from repro.obs.live import RollupWatcher

        telemetry = Telemetry()
        telemetry.watcher = RollupWatcher(
            telemetry,
            rules=default_serving_rules(),
            every=2,
            label="serve",
        )
        # 2x+ overload against a tiny queue: most submissions shed while the
        # generator runs, then the queue drains with no new traffic — the
        # burn rate collapses to zero and the alert must resolve.
        with pytest.warns(RuntimeWarning):
            report, _results = self._serve(
                serve_trained, telemetry,
                offered_rps=2000.0, queue_capacity=16,
                shed_policy="shed-oldest", max_requests=80,
            )
        assert report.n_shed > 0
        fires = [e for e in telemetry.events
                 if e["name"] == "alert.fire" and e["alert"] == "slo-burn-rate"]
        resolves = [e for e in telemetry.events
                    if e["name"] == "alert.resolve" and e["alert"] == "slo-burn-rate"]
        assert fires, "expected the shed burn-rate alert to fire under overload"
        assert resolves, "expected the alert to resolve once the queue drained"
        assert fires[0]["key"] < resolves[0]["key"]
        assert fires[0]["fast_burn"] > fires[0]["factor"]
        rollups = [e for e in telemetry.events if e["name"] == "watch.rollup"]
        assert rollups
        # The rollup stream saw the alert active and then clear.
        assert any("slo-burn-rate" in e["alerts"] for e in rollups)
        assert "slo-burn-rate" not in rollups[-1]["alerts"]


class TestAdaptiveBitIdentity:
    def test_telemetry_run_is_bit_identical_with_lifecycle_linkage(
        self, tmp_path_factory
    ):
        spec = apply_overrides(get_scenario("adapt-1k-drift-recovery"), ADAPT_TINY)
        baseline = ExperimentRunner(spec).run_fleet(
            registry_root=str(tmp_path_factory.mktemp("registry-a"))
        )
        out_dir = tmp_path_factory.mktemp("telemetry-adapt")
        runner = ExperimentRunner(
            apply_overrides(spec, {"obs.dir": str(out_dir)})
        )
        traced = runner.run_fleet(
            registry_root=str(tmp_path_factory.mktemp("registry-b"))
        )
        paths = runner.telemetry.finalize()
        assert traced == baseline  # adaptation timeline included

        records = read_trace(paths["trace"])
        spans = {r["span_id"]: r for r in records if r["kind"] == "span"}
        retrains = [r for r in records if r.get("name") == "adapt.retrain"]
        timeline = traced.adaptation
        assert len(retrains) == len(timeline.retrains)
        # Each retrain span hangs off the fleet.tick span of its own tick...
        for span in retrains:
            parent = spans[span["parent_id"]]
            assert parent["name"] == "fleet.tick"
            assert parent["attributes"]["tick"] == span["attributes"]["tick"]
        # ...and the gate/swap events are stamped with the retrain span ids.
        gates = [r for r in records if r.get("name") == "adapt.gate"]
        swaps = [r for r in records if r.get("name") == "adapt.swap"]
        assert len(gates) == len(timeline.retrains)
        assert len(swaps) == len(timeline.swaps)
        for event in gates + swaps:
            assert spans[event["span_id"]]["name"] == "adapt.retrain"
        drifts = [r for r in records if r.get("name") == "adapt.drift"]
        assert len(drifts) == len(timeline.drifts)

        registry = MetricsRegistry.from_payload(
            json.loads(paths["metrics_json"].read_text())
        )
        accepted = sum(1 for r in timeline.retrains if r.accepted)
        retrain_counter = registry.get("adapt_retrains_total")
        assert retrain_counter.value(accepted="true") == accepted
        assert registry.get("adapt_swaps_total").value() == len(timeline.swaps)


class TestCliSurface:
    TINY_SETS = [arg for key, value in TINY.items()
                 for arg in ("--set", f"{key}={value}")]

    def test_fleet_telemetry_flag_and_obs_summarize(self, tmp_path, capsys):
        out_dir = tmp_path / "telemetry"
        assert main([
            "fleet", "fleet-burst-storm", *self.TINY_SETS,
            "--telemetry", str(out_dir), "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "per-stage wall-clock breakdown:" in out
        assert f"Telemetry: {out_dir}" in out
        for name in ("trace.jsonl", "metrics.json", "metrics.prom"):
            assert (out_dir / name).is_file()
        # One source: the printed stage seconds are the exported counters.
        exported = MetricsRegistry.from_payload(
            json.loads((out_dir / "metrics.json").read_text())
        )
        printed = re.findall(r"^  \w.*\) +(\d+\.\d{3}) s  \(", out, re.MULTILINE)
        stage_seconds = exported.get("fleet_stage_seconds_total")
        assert printed[: len(STAGES)] == [
            f"{stage_seconds.value(stage=stage):.3f}" for stage in STAGES
        ]
        total = exported.get("fleet_run_seconds_total").value()
        assert f"{'total':<50s} {total:8.3f} s" in out
        assert main(["obs", "summarize", str(out_dir / "trace.jsonl")]) == 0
        digest = capsys.readouterr().out
        assert "telemetry digest: fleet-burst-storm" in digest
        assert "tier utilization:" in digest

    def test_obs_summarize_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "no trace file" in capsys.readouterr().err

    def test_telemetry_flag_is_obs_spec_sugar(self, capsys):
        assert main([
            "fleet", "fleet-burst-storm", "--spec-only",
            "--telemetry", "/tmp/somewhere",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["obs"]["dir"] == "/tmp/somewhere"
        assert payload["obs"]["trace"] is True
