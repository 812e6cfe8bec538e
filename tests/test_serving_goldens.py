"""Serving goldens: the per-request results of all-due-at-once runs, pinned.

With ``offered_rps=1e9`` every request is due before the micro-batcher first
runs, so admission sees the whole stream at once and the micro-batch
boundaries follow from (spec, seed) alone.  Each golden holds every
``ServeResult`` field except the measured ``latency_ms``, plus every
``ServingReport`` field that does not read the wall clock.

The files under ``tests/goldens/serving/`` were recorded with the front door
of commit 6e97140 (one task and one future per request, detection on a
worker thread).  They hold exactly: the comparison below is ``==`` on the
loaded JSON, not the float tolerance of ``tests/goldens.py``.
"""

import copy
import warnings
from dataclasses import replace

import pytest
from goldens import GOLDEN_DIR

from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.fleet.devices import DeviceFleet, WindowPool
from repro.fleet.faults import FaultEvent, FaultSpec
from repro.serving import ServeResult, serve_workload
from repro.utils.serialization import load_json, to_jsonable

TINY = {
    "data.weeks": "8",
    "detectors.0.epochs": "2",
    "detectors.1.epochs": "2",
    "detectors.2.epochs": "2",
    "policy.episodes": "2",
    "fleet.n_devices": "64",
    "fleet.ticks": "10",
    "fleet.arrival_rate": "1.0",
}

#: Every request is due at once.
ALL_DUE = 1e9

#: No request of a test-size run may expire on the host's clock.
_NO_EXPIRY = {"max_age_ms": 600_000.0, "slo_p99_ms": 600_000.0}

#: The IoT -> edge uplink is down for ticks [3, 8): the plan of the
#: ``qualify-tier-partition`` case, moved down one link because the test-size
#: policy never picks the cloud.
_PARTITION = FaultSpec(
    events=(FaultEvent(kind="link-down", at_tick=3, until_tick=8, link=0),),
    failover_retries=2,
    retry_timeout_ms=25.0,
)

CASES = {
    "unpaced-large-queue": dict(
        max_requests=400, queue_capacity=400, service_time_scale=0.0, **_NO_EXPIRY
    ),
    "queue-8-reject-new": dict(
        max_requests=80, queue_capacity=8, shed_policy="reject-new",
        service_time_scale=0.0, **_NO_EXPIRY,
    ),
    "queue-8-shed-oldest": dict(
        max_requests=80, queue_capacity=8, shed_policy="shed-oldest",
        service_time_scale=0.0, **_NO_EXPIRY,
    ),
    "paced-scale-0.01": dict(
        max_requests=400, queue_capacity=400, service_time_scale=0.01, **_NO_EXPIRY
    ),
    "tier-partition": dict(
        max_requests=400, queue_capacity=400, service_time_scale=0.01,
        faults=_PARTITION, **_NO_EXPIRY,
    ),
}

#: Report fields that read the wall clock.
_CLOCK_FIELDS = ("achieved_rps", "duration_seconds", "latency", "slo_met")


@pytest.fixture(scope="module")
def trained():
    """A tiny trained serving scenario of its own (no other test swaps it)."""
    spec = apply_overrides(get_scenario("serve-front-door"), TINY)
    runner = ExperimentRunner(spec)
    for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
        getattr(runner, stage)()
    return spec, runner


def serve_all_due(trained, faults=None, **overrides):
    """One all-due-at-once run against a private copy of the trained system."""
    spec, runner = trained
    state = runner.state
    pool = WindowPool.from_labeled(state.standardized_all)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return serve_workload(
            system=copy.deepcopy(state.system),
            policy=state.policy,
            context_extractor=state.context_extractor,
            serving=replace(spec.serve, offered_rps=ALL_DUE, **overrides),
            fleet=DeviceFleet(spec.fleet, pool, master_seed=spec.seed),
            master_seed=spec.seed,
            name=spec.name,
            tier_names=spec.topology.tier_names,
            faults=faults,
        )


def serving_payload(report, results) -> dict:
    """A run's golden payload: everything it returned but the wall clock."""
    fields = [name for name in ServeResult._fields if name != "latency_ms"]
    summary = report.to_dict()
    for name in _CLOCK_FIELDS:
        del summary[name]
    return to_jsonable({
        "report": summary,
        "results": {name: [getattr(r, name) for r in results] for name in fields},
    })


@pytest.mark.parametrize("case", sorted(CASES))
def test_all_due_run_matches_golden(trained, golden, case):
    report, results = serve_all_due(trained, **CASES[case])
    payload = serving_payload(report, results)
    name = f"serving/{case}.json"
    golden(name, payload)
    assert load_json(GOLDEN_DIR / name) == payload
