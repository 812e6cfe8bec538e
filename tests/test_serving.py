"""Tests for the online serving front door (:mod:`repro.serving`).

The two acceptance pins live here:

* **graceful overload** — under 2x the calibrated capacity the server sheds
  (counted and warned once) while the *served-request* p99 stays within the
  SLO;
* **drain-and-swap** — a hot swap lands mid-run without dropping a single
  in-flight request, and post-swap responses carry the new model version.

Everything runs against one tiny trained ``serve-front-door`` scenario
(module-scoped fixture); service is paced by the *simulated* HEC delays, so
capacity — and with it the overload behaviour — is machine-independent.
"""

import asyncio
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    SCENARIOS,
    ExperimentRunner,
    ExperimentSpec,
    ServingSpec,
    apply_overrides,
    get_scenario,
)
from repro.fleet.devices import DeviceFleet, WindowPool
from repro.fleet.faults import FaultEvent, FaultSpec
from repro.hec.simulation import HECSystem
from repro.serving import (
    IngestServer,
    OpenLoopLoadGenerator,
    ServingReport,
    blue_green_swap,
    serve_workload,
)

#: An offered rate at which every request is due at once.
ALL_DUE = 1e9

#: Shrink the serving scenario to test size (training and traffic).
TINY = {
    "data.weeks": "8",
    "detectors.0.epochs": "2",
    "detectors.1.epochs": "2",
    "detectors.2.epochs": "2",
    "policy.episodes": "2",
    "fleet.n_devices": "64",
    "fleet.ticks": "10",
    "fleet.arrival_rate": "1.0",
    "serve.max_requests": "80",
    "serve.offered_rps": "120",
}


@pytest.fixture(scope="module")
def trained():
    """A tiny trained serving scenario: (spec, runner with train_policy done)."""
    spec = apply_overrides(get_scenario("serve-front-door"), TINY)
    runner = ExperimentRunner(spec)
    for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
        getattr(runner, stage)()
    return spec, runner


def _fresh_fleet(spec, runner):
    """The scenario's device fleet."""
    pool = WindowPool.from_labeled(runner.state.standardized_all)
    return DeviceFleet(spec.fleet, pool, master_seed=spec.seed)


def _serve(trained, swap=None, swap_at_fraction=0.5, **serve_overrides):
    spec, runner = trained
    serving = replace(spec.serve, **serve_overrides)
    state = runner.state
    return serve_workload(
        system=state.system,
        policy=state.policy,
        context_extractor=state.context_extractor,
        serving=serving,
        fleet=_fresh_fleet(spec, runner),
        master_seed=spec.seed,
        name=spec.name,
        tier_names=spec.topology.tier_names,
        swap=swap,
        swap_at_fraction=swap_at_fraction,
    )


class TestServingSpec:
    def test_defaults_are_valid(self):
        spec = ServingSpec()
        assert spec.shed_policy == "reject-new"
        assert spec.effective_max_age_ms == spec.slo_p99_ms / 2.0

    def test_explicit_max_age_wins_over_derived(self):
        spec = ServingSpec(max_age_ms=200.0)
        assert spec.effective_max_age_ms == 200.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_wait_ms": 0.0},
            {"queue_capacity": -1},
            {"shed_policy": "drop-everything"},
            {"tier_concurrency": 0},
            {"slo_p99_ms": -1.0},
            {"service_time_scale": -0.5},
            {"offered_rps": 0.0},
            {"max_requests": 0},
            {"reservoir_size": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServingSpec(**kwargs)

    def test_unreachable_slo_rejected(self):
        # Derived shed deadline (slo/2) must clear the batcher's max wait.
        with pytest.raises(ConfigurationError, match="unreachable SLO"):
            ServingSpec(slo_p99_ms=8.0, max_wait_ms=5.0)
        # An explicit age budget at or below the max wait sheds everything.
        with pytest.raises(ConfigurationError, match="max_age_ms"):
            ServingSpec(max_age_ms=5.0, max_wait_ms=5.0)
        # ... but an explicit, reachable age budget allows a tight SLO.
        assert ServingSpec(slo_p99_ms=8.0, max_wait_ms=5.0, max_age_ms=6.0)

    def test_from_dict_round_trip_and_unknown_keys(self):
        spec = ServingSpec(max_batch=16, shed_policy="shed-oldest", max_age_ms=50.0)
        assert ServingSpec.from_dict(
            {f: getattr(spec, f) for f in spec.__dataclass_fields__}
        ) == spec
        with pytest.raises(ConfigurationError, match="bogus"):
            ServingSpec.from_dict({"bogus": 1})


class TestSpecTreeIntegration:
    def test_scenario_has_serve_node(self):
        spec = get_scenario("serve-front-door")
        assert spec.serve == ServingSpec()
        assert spec.fleet is not None

    def test_serve_overrides_apply(self):
        spec = get_scenario("serve-front-door")
        spec = apply_overrides(
            spec, {"serve.offered_rps": "500", "serve.max_age_ms": "50"}
        )
        assert spec.serve.offered_rps == 500.0
        assert spec.serve.max_age_ms == 50.0

    def test_unknown_serve_override_rejected(self):
        with pytest.raises(ConfigurationError, match="serve.bogus"):
            apply_overrides(get_scenario("serve-front-door"), {"serve.bogus": "1"})

    def test_describe_carries_serve_node(self):
        described = SCENARIOS.describe("serve-front-door")
        assert described["serve"]["shed_policy"] == "reject-new"

    def test_specs_without_serve_still_round_trip(self):
        spec = get_scenario("fleet-burst-storm")
        assert spec.serve is None
        assert ExperimentSpec.from_dict(spec.to_dict()).serve is None


class TestIngestServerValidation:
    def test_policy_layer_mismatch_rejected(self, trained):
        spec, runner = trained

        class FivePolicy:
            n_actions = 5

        with pytest.raises(ConfigurationError, match="5 actions"):
            IngestServer(
                runner.state.system,
                FivePolicy(),
                runner.state.context_extractor,
                spec.serve,
            )

    def test_tier_names_length_checked(self, trained):
        spec, runner = trained
        with pytest.raises(ConfigurationError, match="tier names"):
            IngestServer(
                runner.state.system,
                runner.state.policy,
                runner.state.context_extractor,
                spec.serve,
                tier_names=("only-one",),
            )

    def test_submit_before_start_rejected(self, trained):
        spec, runner = trained
        server = IngestServer(
            runner.state.system,
            runner.state.policy,
            runner.state.context_extractor,
            spec.serve,
        )
        with pytest.raises(ConfigurationError, match="started"):
            asyncio.run(server.submit(0, np.zeros(12)))

    def test_loadgen_needs_arrivals(self, trained):
        spec, runner = trained
        starved = replace(spec.fleet, arrival_rate=1e-6)
        pool = WindowPool.from_labeled(runner.state.standardized_all)
        with pytest.raises(ConfigurationError, match="no arrivals"):
            OpenLoopLoadGenerator(
                DeviceFleet(starved, pool, master_seed=spec.seed), spec.serve
            )


    def test_loadgen_stops_at_the_tick_that_fills_max_requests(self, trained):
        """Same requests as draining every tick (the reference below), without
        drawing the ticks past the one that fills ``max_requests``."""
        spec, runner = trained
        serving = replace(spec.serve, max_requests=25)
        fleet = _fresh_fleet(spec, runner)
        drawn = []
        arrivals = fleet.arrivals_columnar
        fleet.arrivals_columnar = lambda tick: drawn.append(tick) or arrivals(tick)
        generator = OpenLoopLoadGenerator(fleet, serving, master_seed=spec.seed)

        batches = [
            _fresh_fleet(spec, runner).arrivals_columnar(tick)
            for tick in range(spec.fleet.ticks)
        ]
        ticks = np.repeat(np.arange(spec.fleet.ticks), [batch.n for batch in batches])
        assert ticks.size > 25 and ticks[24] < spec.fleet.ticks - 1
        assert drawn == list(range(ticks[24] + 1))
        np.testing.assert_array_equal(generator.ticks, ticks[:25])
        for field in ("windows", "labels", "device_ids"):
            np.testing.assert_array_equal(
                getattr(generator, field),
                np.concatenate([getattr(batch, field) for batch in batches])[:25],
            )


class TestServingHappyPath:
    def test_low_load_serves_everything(self, trained):
        report, results = _serve(trained, offered_rps=60.0, max_requests=60)
        assert report.n_submitted == 60
        assert report.n_served == 60
        assert report.n_rejected == report.n_shed == report.n_expired == 0
        assert report.n_dropped == 0
        assert report.shed_rate == 0.0
        assert report.slo_met
        assert all(r.served for r in results)
        assert report.n_batches >= 1
        assert sum(t.requests for t in report.tiers) == report.n_served
        assert report.latency.p99_ms >= report.latency.p50_ms > 0.0

    def test_results_in_submission_order(self, trained):
        spec, runner = trained
        serving = replace(spec.serve, offered_rps=200.0, max_requests=50)
        _report, results = _serve(trained, offered_rps=200.0, max_requests=50)
        reference = OpenLoopLoadGenerator(
            _fresh_fleet(spec, runner), serving, master_seed=spec.seed
        )
        assert [r.device_id for r in results] == reference.device_ids.tolist()
        assert [r.label for r in results] == reference.labels.astype(int).tolist()

    def test_served_predictions_match_direct_detection(self, trained):
        """The front door must answer exactly what the detector would say."""
        spec, runner = trained
        serving = replace(spec.serve, offered_rps=200.0, max_requests=40)
        _report, results = _serve(trained, offered_rps=200.0, max_requests=40)
        reference = OpenLoopLoadGenerator(
            _fresh_fleet(spec, runner), serving, master_seed=spec.seed
        )
        system = runner.state.system
        for i, result in enumerate(results):
            if not result.served:
                continue
            direct = system.detect_batch(result.layer, reference.windows[i : i + 1])
            assert int(direct.predictions[0]) == result.prediction

    def test_report_json_round_trip(self, trained, tmp_path):
        report, _results = _serve(trained, offered_rps=200.0, max_requests=40)
        path = report.to_json(tmp_path / "serving.json")
        assert ServingReport.from_json(path) == report

    def test_summary_states_counts_slo_and_tiers(self, trained):
        report, _results = _serve(trained, offered_rps=60.0, max_requests=60)
        lines = report.summary().splitlines()
        assert lines[0] == f"Serving report for {report.name}:"
        assert "60 requests offered at 60 rps" in lines[1]
        assert "-> 60 served" in lines[1]
        assert "shed: 0 rejected, 0 evicted, 0 expired (0.0% of offered" in lines[2]
        assert f"SLO {report.slo_p99_ms:.0f} ms: met" in lines[3]
        tier_lines = [line for line in lines if line.startswith("  tier ")]
        assert len(tier_lines) == len(report.tiers)
        assert not any("hot swaps" in line or "fault retries" in line for line in lines)

    def test_runner_serve_stage(self, trained):
        _spec, runner = trained
        report = runner.serve()
        assert "serve" in runner.state.completed
        assert runner.state.serving_report is report
        assert report.n_submitted == 80
        assert report.n_dropped == 0


class TestOverload:
    def test_reject_new_policy(self, trained):
        with pytest.warns(RuntimeWarning, match="serving ingress overloaded"):
            report, results = _serve(
                trained,
                offered_rps=5000.0,
                max_requests=80,
                queue_capacity=8,
                shed_policy="reject-new",
            )
        assert report.n_rejected > 0
        assert report.n_dropped == 0
        rejected = [r for r in results if r.status == "rejected"]
        assert len(rejected) == report.n_rejected
        assert all(r.shed_reason == "queue-full" for r in rejected)

    def test_shed_oldest_policy(self, trained):
        with pytest.warns(RuntimeWarning, match="serving ingress overloaded"):
            report, results = _serve(
                trained,
                offered_rps=5000.0,
                max_requests=80,
                queue_capacity=8,
                shed_policy="shed-oldest",
            )
        assert report.n_shed > 0
        assert report.n_rejected == 0  # eviction admits every newcomer
        assert report.n_dropped == 0
        evicted = [r for r in results if r.status == "shed" and r.shed_reason == "queue-full"]
        assert len(evicted) == report.n_shed

    def test_age_budget_expires_stale_requests(self, trained):
        with pytest.warns(RuntimeWarning, match="serving ingress overloaded"):
            report, results = _serve(
                trained,
                offered_rps=5000.0,
                max_requests=80,
                max_age_ms=20.0,
            )
        assert report.n_expired > 0
        expired = [r for r in results if r.shed_reason == "expired"]
        assert len(expired) == report.n_expired

    def test_overload_warns_exactly_once_per_run(self, trained):
        # Every request is due at once, so all 80 meet the queue of 8 before
        # the first micro-batch: the refusals follow from (spec, seed), not
        # from the host's clock.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report, _results = _serve(
                trained,
                offered_rps=ALL_DUE,
                max_requests=80,
                queue_capacity=8,
            )
        overload = [
            w for w in caught if "serving ingress overloaded" in str(w.message)
        ]
        assert len(overload) == 1
        # The other 71 refusals are counted silently.
        assert (report.n_rejected, report.n_expired) == (72, 0)

    def test_acceptance_2x_overload_sheds_but_served_p99_meets_slo(self, trained):
        """The PR's overload pin: at 2x capacity the server sheds (reported,
        warned) while the p99 of what *was* served stays within the SLO."""
        # Calibrate capacity with a flood run (shedding disabled).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            flood, _ = _serve(
                trained,
                offered_rps=10_000.0,
                max_requests=120,
                queue_capacity=120,
                max_age_ms=60_000.0,
                slo_p99_ms=120_000.0,
            )
        assert flood.n_served == 120
        capacity = flood.achieved_rps
        assert capacity > 0
        # 2x the calibrated capacity against a production-sized ingress queue
        # (smaller than the stream, so the backlog actually hits the bound).
        with pytest.warns(RuntimeWarning, match="serving ingress overloaded"):
            report, _results = _serve(
                trained,
                offered_rps=2.0 * capacity,
                max_requests=160,
                queue_capacity=32,
            )
        total_shed = report.n_rejected + report.n_shed + report.n_expired
        assert total_shed > 0, "2x overload must engage admission control"
        assert report.shed_rate > 0.0
        assert report.n_dropped == 0
        assert report.n_served > 0
        assert report.latency.p99_ms <= report.slo_p99_ms
        assert report.slo_met


class TestDrainAndSwap:
    def test_acceptance_hot_swap_drops_nothing_and_bumps_version(self, trained):
        """The PR's deployment pin: a swap lands between micro-batches with
        zero dropped requests, and post-swap responses carry the new
        model version."""
        spec, runner = trained
        system = runner.state.system
        before = int(system.state_version)
        report, results = _serve(
            trained,
            swap=blue_green_swap(system),
            swap_at_fraction=0.5,
            offered_rps=150.0,
            max_requests=80,
        )
        assert report.n_swaps == 1
        assert report.swap_versions == (before + 1,)
        assert f"hot swaps: 1 (v{before + 1})" in report.summary()
        assert int(system.state_version) == before + 1
        # Zero-drop contract: every submission resolved to exactly one result.
        assert report.n_dropped == 0
        assert len(results) == report.n_submitted == 80
        assert all(
            r.status in ("served", "rejected", "shed") for r in results
        )
        # Responses exist from both sides of the swap, and the post-swap ones
        # come from the new deployment.
        versions = {r.model_version for r in results if r.served}
        assert versions == {before, before + 1}

    def test_swap_waits_for_quiescence(self, trained):
        """drain_and_swap must not run while a batch is in flight."""
        spec, runner = trained
        state = runner.state

        async def _main():
            server = IngestServer(
                state.system,
                state.policy,
                state.context_extractor,
                replace(spec.serve, max_wait_ms=1.0),
                tier_names=spec.topology.tier_names,
            )
            await server.start()
            window = runner.state.standardized_all.windows[0]
            inflight_at_swap = []

            def _swap():
                inflight_at_swap.append(server._inflight)
                return state.system.bump_state_version()

            # Admitted on the spot; each awaitable resolves to its result.
            submissions = [server.submit(i, window) for i in range(8)]
            await asyncio.sleep(0)  # let the batcher pick the batch up
            await server.drain_and_swap(_swap)
            results = await asyncio.gather(*submissions)
            await server.stop()
            return inflight_at_swap, results

        inflight_at_swap, results = asyncio.run(_main())
        assert inflight_at_swap == [0]
        assert all(r.served for r in results)

    def test_swap_versions_accumulate_across_swaps(self, trained):
        spec, runner = trained
        system = runner.state.system
        before = int(system.state_version)
        report, _results = _serve(
            trained,
            swap=blue_green_swap(system),
            swap_at_fraction=0.25,
            offered_rps=150.0,
            max_requests=40,
        )
        assert report.n_swaps == 1
        assert report.swap_versions[0] == before + 1


#: No request of a test-size run may expire on the host's clock, and nothing
#: sleeps for the modelled delay.
UNPACED = dict(service_time_scale=0.0, max_age_ms=600_000.0, slo_p99_ms=600_000.0)


def _server(trained, serving):
    spec, runner = trained
    state = runner.state
    return IngestServer(
        state.system,
        state.policy,
        state.context_extractor,
        serving,
        tier_names=spec.topology.tier_names,
    )


def _without_latency(results):
    return [replace(result, latency_ms=None) for result in results]


class TestRequestTable:
    def test_submit_alone_matches_serve_workload(self, trained):
        """Awaiting each submission gives what the load generator collects."""
        spec, runner = trained
        serving = replace(spec.serve, offered_rps=ALL_DUE, max_requests=60, **UNPACED)
        _report, expected = _serve(trained, offered_rps=ALL_DUE, max_requests=60, **UNPACED)
        generator = OpenLoopLoadGenerator(
            _fresh_fleet(spec, runner), serving, master_seed=spec.seed
        )

        async def _main():
            server = _server(trained, serving)
            await server.start()
            rows = [
                server.submit(int(device), window, label=int(label), tick=int(tick))
                for device, window, label, tick in zip(
                    generator.device_ids, generator.windows,
                    generator.labels, generator.ticks,
                )
            ]
            results = [await row for row in rows]
            await server.stop()
            return results

        results = asyncio.run(_main())
        assert _without_latency(results) == _without_latency(expected)

    def test_table_grows_past_max_requests(self, trained):
        """Submitting more rows than ``max_requests`` doubles the table; the
        rows past the first allocation get what a larger table gives them."""
        spec, runner = trained
        generator = OpenLoopLoadGenerator(
            _fresh_fleet(spec, runner), spec.serve, master_seed=spec.seed
        )
        requests = list(zip(generator.device_ids, generator.windows,
                            generator.labels, generator.ticks))[:40]
        assert len(requests) == 40

        def _submit_all(max_requests):
            serving = replace(spec.serve, offered_rps=ALL_DUE, max_requests=max_requests,
                              queue_capacity=64, **UNPACED)

            async def _main():
                server = _server(trained, serving)
                await server.start()
                rows = [
                    server.submit(int(device), window, label=int(label), tick=int(tick))
                    for device, window, label, tick in requests
                ]
                results = [await row for row in rows]
                await server.stop()
                return server, results

            return asyncio.run(_main())

        grown, results = _submit_all(8)
        assert len(grown._status) == 64  # 8 doubled three times
        unchanged, reference = _submit_all(64)
        assert len(unchanged._status) == 64
        assert all(result.served for result in results)
        assert _without_latency(results) == _without_latency(reference)

    def test_shed_oldest_around_a_held_partial_batch(self, trained):
        """Rows evicted while the batcher holds a part-filled batch free only
        their own windows: every served row is answered on its own window."""
        spec, runner = trained
        system = runner.state.system
        windows = OpenLoopLoadGenerator(
            _fresh_fleet(spec, runner), spec.serve, master_seed=spec.seed
        ).windows[:12]
        serving = replace(
            spec.serve, max_batch=4, max_wait_ms=50.0, queue_capacity=2,
            shed_policy="shed-oldest", **UNPACED,
        )

        async def _main():
            server = _server(trained, serving)
            await server.start()
            rows = [server.submit(0, windows[0])]
            await asyncio.sleep(0.005)  # the batcher holds row 0, waiting to fill
            rows += [server.submit(i, windows[i]) for i in range(1, 6)]
            await asyncio.sleep(0.005)
            rows += [server.submit(i, windows[i]) for i in range(6, 12)]
            results = [await row for row in rows]
            await server.stop()
            return results

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = asyncio.run(_main())
        assert [r.device_id for r in results] == list(range(12))
        assert sum(r.status == "shed" for r in results) >= 3
        served = [(i, r) for i, r in enumerate(results) if r.served]
        assert len(served) + sum(r.status == "shed" for r in results) == 12
        for i, result in served:
            direct = system.detect_batch(result.layer, windows[i : i + 1])
            assert result.prediction == int(direct.predictions[0])
            np.testing.assert_allclose(
                result.anomaly_score, direct.anomaly_scores[0], rtol=1e-9
            )

    def test_a_failing_detector_raises_instead_of_hanging(self, trained, monkeypatch):
        def broken(self, layer, windows, *args, **kwargs):
            raise RuntimeError("detector down")

        monkeypatch.setattr(HECSystem, "detect_batch", broken)
        outcome = []

        def _run():
            try:
                _serve(trained, offered_rps=ALL_DUE, max_requests=40, **UNPACED)
            except RuntimeError as exc:
                outcome.append(exc)

        worker = threading.Thread(target=_run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), "serve_workload hung on a failing detector"
        assert [str(exc) for exc in outcome] == ["detector down"]


def _spy_detect(monkeypatch, calls, slow_layer=None, seconds=0.0):
    """Record ``(layer, rows)`` per detection call; ``slow_layer``'s calls
    also block the event loop for ``seconds``, as a costly detector would."""
    real = HECSystem.detect_batch

    def spy(self, layer, windows, *args, **kwargs):
        calls.append((layer, len(windows)))
        if layer == slow_layer:
            time.sleep(seconds)
        return real(self, layer, windows, *args, **kwargs)

    monkeypatch.setattr(HECSystem, "detect_batch", spy)


class _Route:
    """A stand-in policy: micro-batch ``k`` gets the actions ``plan(k, n)``."""

    def __init__(self, n_actions, plan):
        self.n_actions = n_actions
        self.plan = plan
        self.calls = 0

    def select_actions(self, contexts, greedy=True):
        self.calls += 1
        return self.plan(self.calls, len(contexts))


def _routed_server(trained, serving, plan):
    spec, runner = trained
    state = runner.state
    policy = _Route(state.system.n_layers, plan)
    return IngestServer(state.system, policy, state.context_extractor, serving,
                        tier_names=spec.topology.tier_names)


def _windows(trained, n):
    spec, runner = trained
    windows = runner.state.standardized_all.windows
    return [windows[i % len(windows)] for i in range(n)]


class TestTierBatches:
    """Rows routed to a tier wait in its queue and are detected together."""

    def test_a_flood_detects_full_tier_batches(self, trained, monkeypatch):
        calls = []
        _spy_detect(monkeypatch, calls)
        report, results = _serve(
            trained, offered_rps=ALL_DUE, max_requests=240, queue_capacity=240,
            max_batch=8, max_wait_ms=60_000.0, **UNPACED,
        )
        assert all(result.served for result in results)
        assert report.n_batches == 30  # the micro-batches are unchanged
        sizes = {}
        for layer, n in calls:
            sizes.setdefault(layer, []).append(n)
        assert len(sizes) >= 2, sizes  # the policy split the micro-batches
        assert sum(n for _, n in calls) == 240
        for layer, batch_sizes in sizes.items():
            # max_wait_ms cannot fire, so only the closing flush cuts short.
            assert batch_sizes[:-1] == [8] * (len(batch_sizes) - 1), (layer, batch_sizes)
            assert 1 <= batch_sizes[-1] <= 8

    def test_a_minority_tier_waits_at_most_max_wait_while_the_batcher_is_busy(
        self, trained, monkeypatch
    ):
        """One row of every tenth micro-batch goes to tier 1 while tier 0's
        slow batches keep the ingress queue from emptying: without the
        ``max_wait_ms`` rule those rows would wait ~80 micro-batches for a
        full batch."""
        spec, _runner = trained
        _spy_detect(monkeypatch, [], slow_layer=0, seconds=0.005)
        waits = []
        real_cut = IngestServer._cut

        def cut(self, layer):
            if layer == 1 and self._queue:  # not the closing flush
                waits.append(self._loop.time() - self._routed[1][0][0])
            return real_cut(self, layer)

        monkeypatch.setattr(IngestServer, "_cut", cut)

        def every_tenth(call, n):
            actions = np.zeros(n, dtype=np.int64)
            actions[0] = 1 if call % 10 == 0 else 0
            return actions

        serving = replace(spec.serve, max_batch=8, max_wait_ms=10.0, queue_capacity=800,
                          offered_rps=ALL_DUE, **UNPACED)
        windows = _windows(trained, 720)

        async def _main():
            server = _routed_server(trained, serving, every_tenth)
            await server.start()
            rows = [server.submit(i, window) for i, window in enumerate(windows)]
            await server.settled()
            await server.stop()
            return server.results(), rows

        results, _rows = asyncio.run(_main())
        assert all(result.served for result in results)
        assert len(waits) >= 5, waits
        assert max(waits) < 0.1, waits

    def test_under_a_link_fault_plan_each_tier_batch_is_one_routed_share(
        self, trained, monkeypatch
    ):
        spec, runner = trained
        state = runner.state
        micro_batches, tier_batches = [], []
        real_dispatch, real_serve_tier = IngestServer._dispatch, IngestServer._serve_tier

        async def dispatch(self, batch):
            micro_batches.append(frozenset(batch))
            await real_dispatch(self, batch)

        async def serve_tier(self, layer, windows, rows, sem):
            tier_batches.append((layer, frozenset(rows.tolist())))
            await real_serve_tier(self, layer, windows, rows, sem)

        monkeypatch.setattr(IngestServer, "_dispatch", dispatch)
        monkeypatch.setattr(IngestServer, "_serve_tier", serve_tier)
        faults = FaultSpec(
            events=(FaultEvent(kind="link-down", at_tick=3, until_tick=8, link=0),),
            failover_retries=2, retry_timeout_ms=25.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report, results = serve_workload(
                system=state.system, policy=state.policy,
                context_extractor=state.context_extractor,
                serving=replace(spec.serve, offered_rps=ALL_DUE, max_requests=400,
                                queue_capacity=400, max_batch=8, max_wait_ms=60_000.0,
                                **UNPACED),
                fleet=_fresh_fleet(spec, runner), master_seed=spec.seed, name=spec.name,
                tier_names=spec.topology.tier_names, faults=faults,
            )
        assert all(result.served for result in results)
        assert report.n_retries > 0  # the plan did cover some batches
        for micro_batch in micro_batches:
            shares = [(layer, rows) for layer, rows in tier_batches if rows <= micro_batch]
            assert frozenset().union(*(rows for _, rows in shares)) == micro_batch
            assert len({layer for layer, _ in shares}) == len(shares)
        assert len(tier_batches) > len(micro_batches)  # some micro-batches split

    def test_rows_routed_before_a_swap_are_detected_with_the_new_version(self, trained):
        spec, runner = trained
        system = runner.state.system
        # Paced, one slot per tier: a tier-0 batch blocks the batcher while
        # tier 1's rows (one per micro-batch) sit in its queue.
        serving = replace(spec.serve, max_batch=4, max_wait_ms=60_000.0, tier_concurrency=1,
                          offered_rps=ALL_DUE, max_age_ms=600_000.0, slo_p99_ms=600_000.0)

        def three_to_one(call, n):
            actions = np.zeros(n, dtype=np.int64)
            actions[-1] = 1
            return actions

        windows = _windows(trained, 24)

        async def _main():
            server = _routed_server(trained, serving, three_to_one)
            await server.start()
            rows = [server.submit(i, window) for i, window in enumerate(windows)]
            for _ in range(10_000):
                if server._gate.locked() and any(server._routed_rows):
                    break
                await asyncio.sleep(0)
            routed_at_swap = []

            def _swap():
                routed_at_swap.extend(
                    int(row) for shares in server._routed for _, part, _ in shares for row in part
                )
                return system.bump_state_version()

            version = await server.drain_and_swap(_swap)
            results = [await row for row in rows]
            await server.stop()
            return version, routed_at_swap, results, server

        version, routed, results, server = asyncio.run(_main())
        assert routed, "the swap landed with no row waiting in a tier queue"
        assert all(result.served for result in results)
        assert server.total_shed == 0
        assert {results[row].model_version for row in routed} == {version}
        assert {result.model_version for result in results} == {version - 1, version}

    def test_stop_flushes_partial_tier_batches(self, trained, monkeypatch):
        spec, _runner = trained
        calls = []
        _spy_detect(monkeypatch, calls)
        serving = replace(spec.serve, max_batch=32, max_wait_ms=60_000.0,
                          offered_rps=ALL_DUE, **UNPACED)
        windows = _windows(trained, 10)

        async def _main():
            server = _server(trained, serving)
            await server.start()
            rows = [server.submit(i, window) for i, window in enumerate(windows)]
            await server.stop()
            return [await row for row in rows]

        results = asyncio.run(_main())
        assert all(result.served for result in results)
        assert sum(n for _, n in calls) == 10
        assert all(n < 32 for _, n in calls)
