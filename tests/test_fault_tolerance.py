"""Fault-tolerance pins: durable checkpoints, resume, fault injection, failover.

The headline contracts of the robustness layer:

* a SIGKILLed streaming run resumed from its last durable checkpoint produces
  a report **bit-identical** to the uninterrupted run (serial, sharded and
  adaptive);
* an injected shard-worker crash is recovered at-most-once — the merged
  report carries the exact counts of a crash-free run;
* a partitioned uplink fails requests over to the best reachable tier with
  retry/timeout delay accounting, and utilisation shifts off the unreachable
  tier;
* checkpointing draws no RNG, so a checkpointed run equals an uncheckpointed
  one, cadence notwithstanding.

Kill tests fork a child process (fork start method: the trained state is
inherited, nothing is pickled) and SIGKILL it from inside via the injected
``process-kill`` fault, on the serial paths.  What a *pooled* run does when a
worker dies, the parent is interrupted or the parent is SIGTERMed is
``TestPoolCleanup``'s: those run in subprocesses under a hard ``timeout``, so a
regression fails instead of hanging the suite.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import pickle
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.adapt.controller import AdaptationController
from repro.cli import main
from repro.exceptions import ConfigurationError, SchedulingError, SerializationError
from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.fleet import sharding
from repro.fleet.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointStore,
    load_run_descriptor,
    save_run_descriptor,
    shard_checkpoint_dir,
)
from repro.fleet.devices import WindowPool
from repro.fleet.engine import FleetEngine
from repro.fleet.faults import FaultEvent, FaultSchedule, FaultSpec, WorkerCrash
from repro.fleet.metrics import DelayReservoir, StreamingMetrics
from repro.fleet.spec import MutatorSpec

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

ADAPT_TINY = {
    "data.weeks": "12",
    "detectors.0.epochs": "3",
    "detectors.1.epochs": "3",
    "detectors.2.epochs": "3",
    "policy.episodes": "3",
    "fleet.n_devices": "64",
    "fleet.arrival_rate": "1.0",
    "fleet.ticks": "32",
    "adapt.min_retrain_windows": "32",
}

_FORK = multiprocessing.get_context("fork")

KILL_AT_7 = FaultSpec(events=(FaultEvent(kind="process-kill", at_tick=7),))


@pytest.fixture(scope="module")
def trained():
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


def _die_streaming(kwargs, faults, checkpoint_dir, cadence):
    """Fork-child target: stream until the injected process-kill SIGKILLs us."""
    FleetEngine(
        **kwargs,
        faults=faults,
        checkpoint_dir=checkpoint_dir,
        checkpoint_cadence=cadence,
    ).run()


def _run_killed(kwargs, faults, checkpoint_dir, cadence):
    """Run the fleet in a fork child and assert it died by SIGKILL (a
    multi-shard spec must run its shards in-process: set ``cpus(1)``)."""
    child = _FORK.Process(
        target=_die_streaming,
        args=(kwargs, faults, checkpoint_dir, cadence),
    )
    child.start()
    child.join(timeout=300)
    assert child.exitcode == -9, f"child exited {child.exitcode}, expected SIGKILL"


# -- the durable store -----------------------------------------------------------


class TestCheckpointStore:
    def _payload(self, tick):
        return {"tick": tick, "data": np.arange(4)}

    def _saved(self, tmp_path, *ticks):
        store = CheckpointStore(tmp_path)
        for tick in ticks:
            store.save(self._payload(tick), tick)
        return store

    def test_save_latest_round_trip(self, tmp_path):
        store = self._saved(tmp_path, 3)
        payload = store.latest()
        assert payload["tick"] == 3
        np.testing.assert_array_equal(payload["data"], np.arange(4))
        header = (tmp_path / "ckpt-00000003.pkl").read_bytes().split(b"\n", 1)[0]
        assert header.split(b" ")[:2] == [b"repro-ckpt", b"%d" % CHECKPOINT_FORMAT]

    def test_latest_none_when_empty(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None

    def test_prunes_to_keep_but_never_current(self, tmp_path):
        store = self._saved(tmp_path, 1, 2, 3, 4, 5)
        kept = sorted(p.name for p in tmp_path.glob("ckpt-*.pkl"))
        assert kept == ["ckpt-00000004.pkl", "ckpt-00000005.pkl"]
        assert store.latest()["tick"] == 5
        # A save older than the files on disk is still kept: it is the current one.
        assert store.save(self._payload(2), 2).is_file()

    @pytest.mark.parametrize("damage", ["corrupt", "truncated", "empty"])
    def test_damaged_newest_falls_back_to_predecessor(self, tmp_path, damage):
        store = self._saved(tmp_path, 2, 4)
        newest = tmp_path / "ckpt-00000004.pkl"
        data = newest.read_bytes()
        newest.write_bytes(
            {"corrupt": data[:-1] + bytes([data[-1] ^ 1]),
             "truncated": data[: len(data) // 2],
             "empty": b""}[damage]
        )
        with pytest.warns(RuntimeWarning, match="ckpt-00000004.pkl"):
            assert store.latest()["tick"] == 2

    def test_every_file_damaged_refused(self, tmp_path):
        store = self._saved(tmp_path, 2, 4)
        for path in tmp_path.glob("ckpt-*.pkl"):
            path.write_bytes(path.read_bytes()[:-3])
        with pytest.warns(RuntimeWarning), pytest.raises(
            SerializationError, match="no checkpoint .* verifies"
        ):
            store.latest()

    def test_format_mismatch_refused(self, tmp_path):
        store = self._saved(tmp_path, 2)
        # A format-1 file is a bare pickle with no header; format 2 carried
        # the delay reservoir's generator state; format 3 pickled the
        # adaptation reservoirs and deployed detectors; format 4 pickled the
        # HEC system's clock, layer counters and link traffic counters; a
        # future format carries another number.  None is skipped: all are
        # refused.
        pickled = pickle.dumps({"format": 1, "tick": 4})
        digest = hashlib.sha256(pickled).hexdigest().encode()
        for data, found in (
            (pickled, "format 1 "),
            (b"repro-ckpt 2 " + digest + b"\n" + pickled, "format 2;"),
            (b"repro-ckpt 3 " + digest + b"\n" + pickled, "format 3;"),
            (b"repro-ckpt 4 " + digest + b"\n" + pickled, "format 4;"),
            (b"repro-ckpt 6 " + digest + b"\n" + pickled, "format 6;"),
        ):
            (tmp_path / "ckpt-00000004.pkl").write_bytes(data)
            with pytest.raises(SerializationError, match=f"{found}.*reads format 5"):
                store.latest()

    def test_stray_tmp_file_ignored(self, tmp_path):
        store = self._saved(tmp_path, 2)
        (tmp_path / "ckpt-00000004.pkl.tmp").write_bytes(b"half a checkpo")
        assert store.latest()["tick"] == 2
        store.discard()
        assert store.latest() is None
        assert (tmp_path / "ckpt-00000004.pkl.tmp").exists()

    def test_save_fsyncs_the_file_then_its_directory(self, tmp_path, monkeypatch):
        import repro.fleet.checkpoint as checkpoint

        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(checkpoint.os, "fsync", fsync)
        store = CheckpointStore(tmp_path)
        for tick in (1, 2, 3):
            synced.clear()
            store.save(self._payload(tick), tick)
            assert synced == [False, True]

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointStore(tmp_path).save({}, -1)
        with pytest.raises(ConfigurationError):
            shard_checkpoint_dir(tmp_path, -1)
        assert shard_checkpoint_dir("/base", 3).endswith("shard-03")

    def test_run_descriptor_round_trip(self, tmp_path):
        save_run_descriptor(tmp_path, {"spec": {"name": "x"}, "checkpoint_cadence": 5})
        descriptor = load_run_descriptor(tmp_path)
        assert descriptor["spec"] == {"name": "x"}
        assert descriptor["checkpoint_cadence"] == 5

    def test_run_descriptor_missing(self, tmp_path):
        with pytest.raises(SerializationError, match="no run.json"):
            load_run_descriptor(tmp_path)

    def test_run_descriptor_malformed(self, tmp_path):
        (tmp_path / "run.json").write_text("{oops")
        with pytest.raises(SerializationError, match="malformed"):
            load_run_descriptor(tmp_path)


# -- the fault model -------------------------------------------------------------


class TestFaultSpec:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError, match="fault kind"):
            FaultEvent(kind="meteor-strike", at_tick=0)
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="link-down", at_tick=-1)
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="link-down", at_tick=5, until_tick=5)
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="link-degrade", at_tick=0, factor=0.5)
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="link-down", at_tick=0, link=-1)
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="shard-crash", at_tick=0, shard=-1)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(failover_retries=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(retry_timeout_ms=-1.0)

    def test_active_window(self):
        event = FaultEvent(kind="link-down", at_tick=4, until_tick=8)
        assert [event.active(t) for t in (3, 4, 7, 8)] == [False, True, True, False]
        permanent = FaultEvent(kind="link-down", at_tick=4)
        assert permanent.active(4) and permanent.active(10_000)

    def test_from_dict_round_trip(self):
        spec = FaultSpec.from_dict(
            {
                "events": [
                    {"kind": "link-down", "at_tick": 2, "until_tick": 5, "link": 1},
                    {"kind": "process-kill", "at_tick": 7},
                ],
                "failover_retries": 3,
                "retry_timeout_ms": 50.0,
            }
        )
        assert spec.failover_retries == 3
        assert spec.events[0].kind == "link-down" and spec.events[0].link == 1
        assert spec.events[1].at_tick == 7

    def test_schedule_predicates(self):
        schedule = FaultSchedule(
            FaultSpec(
                events=(
                    FaultEvent(kind="process-kill", at_tick=7),
                    FaultEvent(kind="shard-crash", at_tick=5, shard=1),
                )
            )
        )
        assert schedule.kills_process(7) and not schedule.kills_process(6)
        assert schedule.crashes_shard(1, 5)
        assert not schedule.crashes_shard(0, 5) and not schedule.crashes_shard(1, 4)
        assert schedule.crashed_shards() == (1,)

    def test_apply_links_rejects_out_of_range_link(self, trained):
        _, runner = trained
        schedule = FaultSchedule(
            FaultSpec(events=(FaultEvent(kind="link-down", at_tick=0, link=99),))
        )
        with pytest.raises(ConfigurationError, match="link"):
            schedule.apply_links(runner.state.system, 0)

    def test_worker_crash_is_not_a_repro_error(self):
        # _run_shards re-raises ReproError from workers verbatim; an injected
        # crash must NOT be one or recovery would never run.
        from repro.exceptions import ReproError

        assert not issubclass(WorkerCrash, ReproError)


# -- checkpoint/resume bit-identity ----------------------------------------------


class TestCheckpointResume:
    def test_checkpointing_does_not_perturb_the_stream(self, trained, tmp_path, golden):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        plain = FleetEngine(**kwargs).run()
        checkpointed = FleetEngine(
            **kwargs, checkpoint_dir=str(tmp_path), checkpoint_cadence=3
        ).run()
        assert checkpointed == plain
        golden("fleet/report-fleet-burst-storm.json", checkpointed.to_dict())
        # Boundaries 3, 6 and 9 were saved; the store keeps the newest two.
        assert CheckpointStore(tmp_path).latest()["tick"] == 9

    def test_resume_with_no_checkpoint_streams_from_scratch(self, trained, tmp_path):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        plain = FleetEngine(**kwargs).run()
        resumed = FleetEngine(**kwargs, checkpoint_dir=str(tmp_path)).run(resume=True)
        assert resumed == plain

    def test_fresh_run_never_resumes_an_earlier_runs_state(self, trained, tmp_path):
        """A run that does not resume discards the directory's checkpoints, so
        resuming it later cannot pick up what an earlier run left there."""
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        run_a = {**kwargs, "master_seed": 1, "checkpoint_dir": str(tmp_path)}
        run_b = {**kwargs, "master_seed": 2, "checkpoint_dir": str(tmp_path)}
        FleetEngine(**run_a, checkpoint_cadence=5).run()
        uninterrupted = FleetEngine(**run_b).run()
        assert FleetEngine(**run_b).run(resume=True) == uninterrupted

    def test_kill_and_resume_serial_is_bit_identical(self, trained, tmp_path):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        uninterrupted = FleetEngine(**kwargs).run()
        _run_killed(kwargs, KILL_AT_7, str(tmp_path), cadence=3)
        assert CheckpointStore(tmp_path).latest()["tick"] == 6
        resumed = FleetEngine(
            **kwargs,
            faults=KILL_AT_7,
            checkpoint_dir=str(tmp_path),
            checkpoint_cadence=3,
        ).resume()
        assert resumed == uninterrupted

    def test_resume_draws_no_tick_below_the_checkpoint(
        self, trained, tmp_path, monkeypatch
    ):
        """Resume is O(1): a tick's arrivals need no tick before them, so a
        resumed run asks the fleet for the checkpointed tick onwards only."""
        from repro.fleet.devices import DeviceFleet

        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        uninterrupted = FleetEngine(**kwargs).run()
        _run_killed(kwargs, KILL_AT_7, str(tmp_path), cadence=3)
        drawn = []
        arrivals = DeviceFleet.arrivals_columnar

        def counting(self, tick):
            drawn.append(tick)
            return arrivals(self, tick)

        monkeypatch.setattr(DeviceFleet, "arrivals_columnar", counting)
        resumed = FleetEngine(
            **kwargs, faults=KILL_AT_7, checkpoint_dir=str(tmp_path), checkpoint_cadence=3
        ).resume()
        assert drawn == list(range(6, spec.fleet.ticks))
        assert resumed == uninterrupted

    def test_kill_and_resume_sharded_is_bit_identical(self, trained, cpus, tmp_path):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        kwargs["spec"] = replace(spec.fleet, n_shards=2)
        cpus(1)
        uninterrupted = FleetEngine(**kwargs).run()
        _run_killed(kwargs, KILL_AT_7, str(tmp_path), cadence=3)
        # The kill hit shard 0 mid-run; its store holds the durable boundary.
        shard0 = CheckpointStore(shard_checkpoint_dir(tmp_path, 0))
        assert shard0.latest()["tick"] == 6
        resumed = FleetEngine(
            **kwargs,
            faults=KILL_AT_7,
            checkpoint_dir=str(tmp_path),
            checkpoint_cadence=3,
        ).resume()
        assert resumed == uninterrupted

    def test_resume_from_explicit_path(self, trained, tmp_path):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        uninterrupted = FleetEngine(**kwargs).run()
        _run_killed(kwargs, KILL_AT_7, str(tmp_path), cadence=3)
        engine = FleetEngine(**kwargs, faults=KILL_AT_7, checkpoint_cadence=3)
        assert engine.resume(path=str(tmp_path)) == uninterrupted

    def test_resume_without_directory_rejected(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        with pytest.raises(ConfigurationError, match="checkpoint directory"):
            FleetEngine(**kwargs).resume()
        with pytest.raises(ConfigurationError, match="checkpoint directory"):
            _sharded(kwargs, 2).resume()

    def test_controller_presence_must_match_checkpoint(self, trained):
        spec, runner = trained
        engine = FleetEngine(**_engine_kwargs(spec, runner))
        with pytest.raises(ConfigurationError, match="adaptive run"):
            engine._restore_checkpoint({"tick": 0, "controller": {}}, shape=None)
        engine.controller = object()
        with pytest.raises(ConfigurationError, match="without adaptation"):
            engine._restore_checkpoint({"tick": 0, "controller": None}, shape=None)

    def test_checkpoint_from_another_shard_or_run_refused(self, trained, cpus, tmp_path):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        cpus(1)
        _sharded(kwargs, 2, checkpoint_dir=str(tmp_path), checkpoint_cadence=3).run()
        shard1 = shard_checkpoint_dir(tmp_path, 1)
        with pytest.raises(ConfigurationError, match="shard 1.*shard 0"):
            FleetEngine(**kwargs, shard_index=0).resume(path=shard1)
        with pytest.raises(ConfigurationError, match="run 'other'"):
            FleetEngine(**{**kwargs, "name": "other"}, shard_index=1).resume(path=shard1)
        # The shard's own engine resumes from the same store.
        assert FleetEngine(**kwargs, shard_index=1).resume(path=shard1).n_windows > 0

    def test_negative_cadence_rejected(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        with pytest.raises(ConfigurationError, match="cadence"):
            FleetEngine(**kwargs, checkpoint_cadence=-1)
        with pytest.raises(ConfigurationError, match="cadence"):
            _sharded(kwargs, 2, checkpoint_cadence=-1)


# -- shard-crash recovery --------------------------------------------------------


CRASH_SHARD_1 = FaultSpec(events=(FaultEvent(kind="shard-crash", at_tick=5, shard=1),))


class TestShardCrashRecovery:
    def test_serial_crash_recovers_exact_counts(self, trained, cpus):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        cpus(1)
        baseline = _sharded(kwargs, 2).run()
        with pytest.warns(RuntimeWarning, match="crashed; recovering"):
            crashed = _sharded(kwargs, 2, faults=CRASH_SHARD_1).run()
        assert crashed == baseline

    def test_crash_recovery_resumes_from_shard_checkpoints(self, trained, cpus, tmp_path):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        cpus(1)
        baseline = _sharded(kwargs, 2).run()
        with pytest.warns(RuntimeWarning, match="crashed; recovering"):
            crashed = _sharded(
                kwargs,
                2,
                faults=CRASH_SHARD_1,
                checkpoint_dir=str(tmp_path),
                checkpoint_cadence=2,
            ).run()
        assert crashed == baseline
        # The crashed shard checkpointed under its own per-shard store, and
        # the recovery run kept checkpointing past the crash tick.
        assert CheckpointStore(shard_checkpoint_dir(tmp_path, 1)).latest()["tick"] == 10

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork pools",
    )
    def test_pooled_crash_recovers_exact_counts(self, trained, cpus):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        cpus(1)
        baseline = _sharded(kwargs, 2).run()
        cpus(2)
        with pytest.warns(RuntimeWarning, match="crashed; recovering"):
            crashed = _sharded(kwargs, 2, faults=CRASH_SHARD_1).run()
        assert crashed == baseline
        assert multiprocessing.active_children() == []


# -- link faults & tier failover -------------------------------------------------


OUTAGE = FaultSpec(
    events=(FaultEvent(kind="link-down", at_tick=4, until_tick=10, link=1),),
    failover_retries=2,
    retry_timeout_ms=150.0,
)


class TestLinkFailover:
    def test_outage_shifts_utilisation_to_reachable_tier(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        baseline = FleetEngine(**kwargs).run()
        faulted = FleetEngine(**kwargs, faults=OUTAGE).run()
        # Every request is still served — failover loses no traffic.
        assert faulted.n_windows == baseline.n_windows
        iot, edge, cloud = faulted.tiers
        assert cloud.requests < baseline.tiers[2].requests
        # Redirection is exact: every request the cloud lost was served (and
        # accounted as redirected) at the edge.
        assert edge.redirected == baseline.tiers[2].requests - cloud.requests
        assert edge.redirected > 0 and cloud.redirected == 0
        # Redirected requests pay retries * timeout on top of the edge delay.
        assert edge.mean_delay_ms > baseline.tiers[1].mean_delay_ms
        # The device tier is below the partition and stays untouched.
        assert (iot.requests, iot.mean_delay_ms) == (
            baseline.tiers[0].requests,
            baseline.tiers[0].mean_delay_ms,
        )

    def test_outage_report_matches_golden(self, trained, golden):
        spec, runner = trained
        report = FleetEngine(**_engine_kwargs(spec, runner), faults=OUTAGE).run()
        golden("fleet/report-fleet-burst-storm-outage.json", report.to_dict())

    def test_links_restored_after_outage_window(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        FleetEngine(**kwargs, faults=OUTAGE).run()
        assert not any(link.is_down for link in runner.state.system.topology.links)

    def test_degraded_link_slows_but_never_redirects(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        baseline = FleetEngine(**kwargs).run()
        degraded = FleetEngine(
            **kwargs,
            faults=FaultSpec(
                events=(
                    FaultEvent(
                        kind="link-degrade", at_tick=4, until_tick=10, link=0, factor=6.0
                    ),
                )
            ),
        ).run()
        assert [t.requests for t in degraded.tiers] == [
            t.requests for t in baseline.tiers
        ]
        assert all(t.redirected == 0 for t in degraded.tiers)
        assert degraded.delay.mean_ms > baseline.delay.mean_ms

    def test_failover_retry_accounting(self, trained):
        spec, runner = trained
        system = runner.state.system
        window = WindowPool.from_labeled(runner.state.standardized_all).normal[0]
        system.reset()
        system.topology.warm_links()
        at_edge = system.detect_batch(1, window[None])
        system.reset()
        system.topology.warm_links()
        system.configure_failover(retries=2, timeout_ms=150.0)
        system.topology.links[1].set_status("down")
        assert system.reachable_layer(2) == 1
        redirected = system.detect_batch(2, window[None])
        assert redirected.layer == 1
        assert redirected.delays_ms[0] == pytest.approx(at_edge.delays_ms[0] + 300.0)
        system.reset()
        assert system.reachable_layer(2) == 2

    def test_unknown_layer_still_a_scheduling_error_under_failover(self, trained):
        spec, runner = trained
        system = runner.state.system
        window = WindowPool.from_labeled(runner.state.standardized_all).normal[0]
        with pytest.raises(SchedulingError):
            system.detect_batch(99, window[None])

    def test_failover_configuration_validated(self, trained):
        _, runner = trained
        system = runner.state.system
        with pytest.raises(SchedulingError, match="retries"):
            system.configure_failover(retries=0)
        with pytest.raises(SchedulingError, match="timeout"):
            system.configure_failover(timeout_ms=-1.0)


# -- sensor-fault mutators -------------------------------------------------------


SENSOR_MUTATORS = (
    MutatorSpec(kind="sensor-stuck", stuck_fraction=0.25, stuck_scale=1.0),
    MutatorSpec(kind="sensor-spike", spike_rate=0.1, spike_magnitude=6.0),
)


class TestSensorFaultMutators:
    def test_sensor_fault_report_matches_golden(self, trained, golden):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        kwargs["spec"] = replace(
            spec.fleet,
            mutators=SENSOR_MUTATORS
            + (
                MutatorSpec(
                    kind="sensor-dropout", dropout_fraction=0.25, dropout_horizon=8
                ),
            ),
        )
        report = FleetEngine(**kwargs).run()
        golden("fleet/report-fleet-burst-storm-sensor-faults.json", report.to_dict())

    def test_sensor_corruption_keeps_devices_online_and_deterministic(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        kwargs["spec"] = replace(
            spec.fleet, mutators=spec.fleet.mutators + SENSOR_MUTATORS
        )
        faulty = FleetEngine(**kwargs).run()
        # Stuck/spiked sensors corrupt the observable signal only: every
        # device keeps emitting (unlike dropout), the labels ride along from
        # the pool draw, and the faulty stream is exactly reproducible.
        assert faulty.offline_device_ticks == 0
        assert faulty.online_device_ticks == spec.fleet.ticks * spec.fleet.n_devices
        assert 0 < faulty.n_anomalous < faulty.n_windows
        assert FleetEngine(**kwargs).run() == faulty

    def test_sensor_dropout_silences_devices(self, trained):
        spec, runner = trained
        kwargs = _engine_kwargs(spec, runner)
        clean = FleetEngine(**kwargs).run()
        kwargs["spec"] = replace(
            spec.fleet,
            mutators=(
                MutatorSpec(
                    kind="sensor-dropout", dropout_fraction=1.0, dropout_horizon=4
                ),
            ),
        )
        silenced = FleetEngine(**kwargs).run()
        assert silenced.n_windows < clean.n_windows


# -- merge edge cases ------------------------------------------------------------


def _metrics(**overrides):
    base = dict(ticks=4, metrics_window=2, n_layers=3, reservoir_size=8)
    base.update(overrides)
    return StreamingMetrics(**base)


class TestMergeEdgeCases:
    def _filled(self):
        metrics = _metrics()
        metrics.record_uptime(2, 0)
        metrics.observe(
            0,
            1,
            predictions=np.array([1, 0]),
            labels=np.array([1, 1]),
            delays_ms=np.array([5.0, 6.0]),
            keys=np.array([0, 1]),
            redirected=1,
        )
        return metrics

    def test_merge_with_empty_shard_is_identity(self):
        # A shard whose worker died before its first tick ships an empty
        # payload; merging it must not disturb the surviving shard's counts.
        filled = self._filled()
        merged = StreamingMetrics.merge(
            [_metrics(), StreamingMetrics.from_payload(filled.to_payload())]
        )
        assert merged.n_windows == filled.n_windows
        payload, expected = merged.to_payload(), filled.to_payload()
        for key, value in expected.items():
            np.testing.assert_array_equal(payload[key], value)

    def test_empty_payload_round_trip(self):
        empty = _metrics()
        rebuilt = StreamingMetrics.from_payload(empty.to_payload())
        assert rebuilt.n_windows == 0
        assert math.isnan(rebuilt.reservoir.percentile(50))

    def test_percentile_on_empty_reservoir_is_nan(self):
        reservoir = DelayReservoir(capacity=8)
        assert math.isnan(reservoir.percentile(50))
        assert math.isnan(reservoir.percentile(99))

    def test_merge_zero_parts_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingMetrics.merge([])
        with pytest.raises(ConfigurationError):
            DelayReservoir.merge([])

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingMetrics.merge([_metrics(), _metrics(n_layers=4)])

    def test_restore_shape_mismatch_rejected(self):
        payload = _metrics().to_payload()
        restored = StreamingMetrics.from_payload(payload, shape=_metrics().shape)
        assert restored.shape == (4, 2, 3, 8)
        with pytest.raises(ConfigurationError, match="shape"):
            StreamingMetrics.from_payload(payload, shape=_metrics(n_layers=4).shape)


# -- worker-pool cleanup ---------------------------------------------------------

#: Subprocess prelude: train the tiny scenario (overrides in argv[1]) and keep
#: the real shard runner, so a script can wrap it with a misbehaving one that
#: the pool workers inherit through fork.
_POOLED_PRELUDE = """
import json, multiprocessing, os, sys, time, warnings
from dataclasses import replace
from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.fleet import sharding
from repro.fleet.devices import WindowPool
from repro.fleet.engine import FleetEngine

spec = apply_overrides(get_scenario("fleet-burst-storm"), json.loads(sys.argv[1]))
runner = ExperimentRunner(spec)
for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
    getattr(runner, stage)()
state = runner.state
kwargs = dict(
    system=state.system, policy=state.policy,
    context_extractor=state.context_extractor, spec=replace(spec.fleet, n_shards=2),
    pool=WindowPool.from_labeled(state.standardized_all),
    master_seed=spec.seed, name=spec.name, tier_names=spec.topology.tier_names,
)
parent, run_shard = os.getpid(), sharding.run_shard


def cpus(n):
    # 1 runs the shards serially in-process, more forks the worker pool.
    sharding.available_cpus = lambda: n
"""


def _pooled_script(body: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _POOLED_PRELUDE + body, json.dumps(TINY)],
        cwd=Path(__file__).resolve().parent.parent,
        env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (an unreaped zombie has already died)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestPoolCleanup:
    def test_keyboard_interrupt_drops_the_pool(self, trained, monkeypatch):
        # Shard 0 returns, the parent is interrupted reading its result while
        # shard 1's worker is still mid-stream: that worker must not survive.
        spec, runner = trained
        engine = _sharded(_engine_kwargs(spec, runner), 2)
        run_shard = sharding.run_shard

        def slow_second_shard(payload, resume=False):
            if payload["shard_index"] == 1:
                time.sleep(60)
            return run_shard(payload, resume)

        def interrupted(payload):
            raise KeyboardInterrupt

        monkeypatch.setattr(sharding, "run_shard", slow_second_shard)
        monkeypatch.setattr(StreamingMetrics, "from_payload", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sharding.run_pooled(sharding._shard_payloads(engine))
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 30

    def test_dead_worker_falls_back_instead_of_hanging(self):
        # os._exit stands in for an OOM kill: the worker dies without raising,
        # so no result and no exception ever comes back for its shard.
        script = _pooled_script(
            """
def dying(payload, resume=False):
    if os.getpid() != parent and payload["shard_index"] == 1:
        os._exit(1)
    return run_shard(payload, resume)

sharding.run_shard = dying
cpus(1)
serial = FleetEngine(**kwargs).run()
cpus(2)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    pooled = FleetEngine(**kwargs).run()
print(json.dumps({
    "equal": pooled == serial,
    "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    "children": len(multiprocessing.active_children()),
}))
"""
        )
        try:
            out, err = script.communicate(timeout=120)
        finally:
            script.kill()
        assert script.returncode == 0, err
        result = json.loads(out)
        assert result["equal"] is True
        assert len(result["warnings"]) == 1
        assert result["warnings"][0].startswith("RuntimeWarning: sharded fleet worker")
        assert "BrokenProcessPool" in result["warnings"][0]
        assert result["children"] == 0

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_sigterm_kills_live_workers(self):
        # SIGTERM's default disposition runs no cleanup: without the handler a
        # terminated parent would leave its mid-shard workers streaming.
        script = _pooled_script(
            """
def blocking(payload, resume=False):
    os.write(1, f"{os.getpid()}\\n".encode())  # one write: two workers share the pipe
    time.sleep(120)

sharding.run_shard = blocking
cpus(2)
FleetEngine(**kwargs).run()
"""
        )
        watchdog = threading.Timer(120, script.kill)
        watchdog.start()
        workers = []
        try:
            workers = [int(script.stdout.readline() or 0) for _ in range(2)]
            assert all(workers) and script.pid not in workers, script.stderr.read()
            script.send_signal(signal.SIGTERM)
            assert script.wait(timeout=60) == -signal.SIGTERM, script.stderr.read()
            deadline = time.monotonic() + 10
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, workers))
        finally:
            watchdog.cancel()
            script.kill()
            script.wait()
            for pid in filter(None, workers):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            script.stdout.close()
            script.stderr.close()


# -- CLI error contract ----------------------------------------------------------


class TestCliErrors:
    def test_invalid_set_key_exits_nonzero(self, capsys):
        assert main(["fleet", "fleet-burst-storm", "--set", "fleet.bogus=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_run_set_key_exits_nonzero(self, capsys):
        assert main(["run", "univariate-power", "--set", "nope=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_scenario_exits_nonzero(self, capsys):
        assert main(["fleet", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{not json")
        assert main(["run", "--spec-file", str(bad)]) == 2
        assert "malformed spec JSON" in capsys.readouterr().err

    def test_missing_spec_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["run", "--spec-file", str(tmp_path / "nope.json")]) == 2
        assert "spec file not found" in capsys.readouterr().err

    def test_scenario_and_spec_file_are_exclusive(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{}")
        assert main(["fleet", "fleet-burst-storm", "--spec-file", str(spec_file)]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["fleet"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_spec_file_happy_path(self, tmp_path, capsys):
        spec = apply_overrides(get_scenario("fleet-burst-storm"), TINY)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        assert main(["fleet", "--spec-file", str(spec_file), "--spec-only"]) == 0
        assert "fleet-burst-storm" in capsys.readouterr().out

    def test_resume_without_descriptor_exits_nonzero(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path)]) == 2
        assert "no run.json" in capsys.readouterr().err

    def test_fleet_resume_needs_checkpoint_dir(self, capsys):
        assert main(["fleet", "fleet-burst-storm", "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_serve_unknown_scenario_exits_nonzero(self, capsys):
        assert main(["serve", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_invalid_set_key_exits_nonzero(self, capsys):
        assert main(["serve", "serve-front-door", "--set", "serve.bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "serve.bogus" in err

    def test_serve_unreachable_slo_exits_nonzero(self, capsys):
        assert main(["serve", "serve-front-door", "--set", "serve.slo_p99_ms=2"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unreachable SLO" in err

    def test_serve_scenario_without_fleet_exits_nonzero(self, capsys):
        assert main(["serve", "univariate-power"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "serve-front-door" in err

    def test_serve_spec_only_happy_path(self, capsys):
        assert main(["serve", "serve-front-door", "--spec-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serve"]["shed_policy"] == "reject-new"

    def test_qualify_unknown_pack_exits_nonzero(self, capsys):
        assert main(["qualify", "--pack", "no-such-pack"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no-such-pack" in err

    def test_qualify_unknown_scenario_exits_nonzero(self, capsys):
        assert main(["qualify", "--scenario", "no-such-case"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no-such-case" in err

    def test_qualify_invalid_set_key_exits_nonzero(self, capsys):
        assert main(["qualify", "--set", "qualify.bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "qualify.bogus" in err

    def test_qualify_non_qualify_set_key_exits_nonzero(self, capsys):
        assert main(["qualify", "--set", "fleet.ticks=3"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "qualify.<field>" in err

    def test_qualify_invalid_scale_exits_nonzero(self, capsys):
        assert main(["qualify", "--set", "qualify.ticks_scale=-1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "ticks_scale" in err

    def test_qualify_contract_construction_error_exits_nonzero(
        self, capsys, monkeypatch
    ):
        import repro.fleet.qualify as qualify

        def bad_pack(name):
            # A malformed contract spec must surface through the CLI's
            # uniform error path, not a traceback.
            qualify.ContractSpec(name="broken", metric="f1", op="!=", bound=0.5)

        monkeypatch.setattr(qualify, "get_pack", bad_pack)
        assert main(["qualify"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "op must be one of" in err
        assert len([line for line in err.splitlines() if line.strip()]) == 1


# -- adaptive kill/resume --------------------------------------------------------


@pytest.fixture(scope="class")
def adapt_trained():
    spec = apply_overrides(get_scenario("adapt-1k-drift-recovery"), ADAPT_TINY)
    runner = ExperimentRunner(spec)
    for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
        getattr(runner, stage)()
    return spec, runner


def _adaptive_engine(spec, runner, registry_root, **extra):
    controller = AdaptationController(
        spec.adapt,
        system=runner.state.system,
        tier_names=spec.topology.tier_names,
        metrics_window=spec.fleet.metrics_window,
        master_seed=spec.seed,
        registry_root=registry_root,
    )
    return FleetEngine(
        **_engine_kwargs(spec, runner), controller=controller, **extra
    )


def _adaptive_run(spec, runner, registry_root, resume=False, **extra):
    """The report and each tier's current registry version after a run."""
    engine = _adaptive_engine(spec, runner, registry_root, **extra)
    report = engine.run(resume=resume)
    registry = engine.controller.registry
    return report, {tier: registry.current(tier) for tier in spec.topology.tier_names}


def _send_result(conn, function, args, kwargs):
    conn.send(function(*args, **kwargs))


def _forked(function, *args, **kwargs):
    """``function(*args, **kwargs)`` run in a fork child, its result sent back.

    Adaptive runs hot-swap detectors into the live system, so each run
    happens in its own fork — the parent's trained state stays pristine.
    """
    parent_conn, child_conn = _FORK.Pipe()
    child = _FORK.Process(target=_send_result, args=(child_conn, function, args, kwargs))
    child.start()
    child_conn.close()  # so a child that dies ends the pipe: recv raises EOFError
    assert parent_conn.poll(600), "the forked run timed out"
    result = parent_conn.recv()
    child.join(timeout=600)
    assert child.exitcode == 0
    return result


class TestAdaptiveKillResume:
    @pytest.mark.parametrize(
        "kill_tick, checkpoint_tick",
        [(17, 16), (13, 8)],
        ids=["checkpointed-after-swap", "killed-after-swap"],
    )
    def test_kill_and_resume_adaptive_is_bit_identical(
        self, adapt_trained, tmp_path, kill_tick, checkpoint_tick
    ):
        """Killed with a swap behind its newest checkpoint, or with a swap
        after it, the run resumes against its own registry to the
        uninterrupted report and the same current version on every tier."""
        spec, runner = adapt_trained
        baseline, baseline_current = _forked(
            _adaptive_run, spec, runner, str(tmp_path / "baseline-registry")
        )
        assert any(swap.tick < kill_tick for swap in baseline.adaptation.swaps)

        registry, ckpt = str(tmp_path / "registry"), str(tmp_path / "ckpt")
        faulted = dict(
            faults=FaultSpec(events=(FaultEvent(kind="process-kill", at_tick=kill_tick),)),
            checkpoint_dir=ckpt,
            checkpoint_cadence=8,
        )
        kill_child = _FORK.Process(
            target=_adaptive_run, args=(spec, runner, registry), kwargs=faulted
        )
        kill_child.start()
        kill_child.join(timeout=600)
        assert kill_child.exitcode == -9
        assert CheckpointStore(ckpt).latest()["tick"] == checkpoint_tick

        resumed, resumed_current = _forked(
            _adaptive_run, spec, runner, registry, resume=True, **faulted
        )
        # The timeline — drifts, retrains, swaps — continues across the kill
        # exactly where the checkpoint left it, and the drift scenario did
        # adapt (the contract is not vacuous).
        assert len(baseline.adaptation.drifts) > 0
        assert resumed.adaptation == baseline.adaptation
        assert resumed == baseline
        assert resumed_current == baseline_current
