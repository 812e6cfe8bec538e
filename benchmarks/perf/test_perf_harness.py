"""Smoke tests of the performance benchmark (collected by the tier-1 command).

Every workload runs once, traced, at ``--smoke`` scale; the tests check the
plumbing, not the numbers: every metric declared in ``BENCHMARK.json`` is
emitted exactly once with its unit, spans nest, the timing wrappers are gone
after a traced run, and result files validate against the schema.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import compare, harness
from benchmarks.perf.layers import BOUNDARIES, CHECKPOINT_BOUNDARY, SUBMIT_TARGET
from benchmarks.perf.tracing import FOLD_AFTER, Tracer, resolve

BENCH = harness.load_benchmark()
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
PATCHED = [target for target, _, _ in BOUNDARIES + (CHECKPOINT_BOUNDARY,)] + [SUBMIT_TARGET]


def _current(target: str):
    owner, attr = resolve(target)
    return vars(owner)[attr]


@pytest.fixture(scope="module")
def traced_runs():
    """One traced smoke run per workload, with the callables seen before it."""
    before = {target: _current(target) for target in PATCHED}
    runs = {
        name: harness.run_workload(name, seed=0, seconds=0.1, trace=True, smoke=True)
        for name in WORKLOADS
    }
    return before, runs


def test_benchmark_json_obeys_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["paths"] == ["benchmarks/perf"]
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16 and 1 <= len(BENCH["per_layer"]) <= 128
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in BENCH[key]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", name), name
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    # The largest workload set must fit the driver's budget with room to spare.
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 8) < 3420


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted_once_with_its_unit(traced_runs, name):
    document, _ = traced_runs[1][name]
    harness.validate_result(document, BENCH)
    assert document["correct"], document["failures"]
    assert document["failed"] == 0 and document["attempted"] >= 1
    report = io.StringIO()
    harness.print_report(document, stream=report)
    lines = [line.split() for line in report.getvalue().splitlines()]
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        emitted = [line for line in lines if line and line[0] == metric["name"]]
        assert len(emitted) == 1, (metric["name"], emitted)
        assert emitted[0][-1] == metric["unit"]
    for trace, declared in ((False, BENCH["end_to_end"]), (True, BENCH["per_layer"])):
        final = json.loads(harness.final_line({**document, "trace": trace}))
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert {m["name"]: m["unit"] for m in declared} == {
            key: value["unit"] for key, value in final["metrics"].items()
        }
    # End-to-end metrics are never 0; setup_s is among them.
    assert all(metric["value"] > 0 for metric in document["end_to_end"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_nest(traced_runs, name):
    _, tracer = traced_runs[1][name]
    spans = {span_id: (start, end) for span_id, _, _, start, end in tracer.records}
    children = {}
    for span_id, _, parent, start, end in tracer.records:
        assert end >= start
        if parent in spans:  # a folded parent keeps no record of its own
            parent_start, parent_end = spans[parent]
            assert parent_start <= start and end <= parent_end
            children[parent] = children.get(parent, 0.0) + (end - start)
    for parent, covered in children.items():
        start, end = spans[parent]
        assert covered <= (end - start) + 1e-9
    assert tracer.calls("op") >= 2
    for (span, _), (calls, busy_s, self_s, _) in tracer.totals.items():
        assert calls >= 1 and busy_s >= self_s >= -1e-9, span


def test_layers_discriminate_between_workloads(traced_runs):
    """LSTM layers run on offline-multivariate only; training runs offline only."""
    layers = {name: run[0]["per_layer"] for name, run in traced_runs[1].items()}
    for name, metrics in layers.items():
        lstm = metrics["nn.lstm_forward_ns_per_window"]["value"]
        assert (lstm > 0) == (name == "offline-multivariate"), name
        trained = metrics["nn.train_batches"]["value"]
        assert (trained > 0) == name.startswith("offline-"), name
        served = metrics["serving.submit_calls"]["value"]
        assert (served > 0) == name.startswith("serve-"), name
        assert metrics["hec.failover_redirects"]["value"] == 0
    assert layers["stream-warm"]["fleet.checkpoint_bytes"]["value"] > 0
    assert layers["stream-warm"]["obs.trace_records"]["value"] > 0


def test_wrappers_are_uninstalled_after_a_traced_run(traced_runs):
    before, _ = traced_runs
    for target in PATCHED:
        assert _current(target) is before[target], target


def test_hot_boundaries_are_written_folded(tmp_path):
    tracer = Tracer("fold")
    for _ in range(FOLD_AFTER + 5):
        with tracer.span("hot"):
            pass
    with tracer.span("cold"):
        pass
    tracer.write(tmp_path / "trace.jsonl")
    records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [r["name"] for r in records if r["kind"] == "span"] == ["cold"]
    (folded,) = [r for r in records if r["kind"] == "folded"]
    assert folded["name"] == "hot" and folded["calls"] == FOLD_AFTER + 5


def test_a_run_is_summarised_by_its_median_operation_on_the_reference_host():
    from types import SimpleNamespace

    from benchmarks.perf.workloads import OpResult

    batch = SimpleNamespace(host_bound=True, latency_chunk=None, nominal_units=50.0)
    # Nine operations on a host taking 1.2x the reference kernel's time, and
    # a tenth in a burst that slowed operation and kernel alike.
    ops = [OpResult(units=100.0, busy_s=busy) for busy in [1.0] * 9 + [1.5]]
    summary = harness.summarise(ops, [1.2] * 9 + [1.8], batch)
    assert summary["throughput_per_s"] == pytest.approx(120.0)
    # A batch operation's latency is the time of its nominal size.
    assert summary["latency_p50_ms"] == summary["latency_p90_ms"] == pytest.approx(1000 * 50 / 120)

    served = SimpleNamespace(host_bound=True, latency_chunk=4, nominal_units=1.0)
    # 2.5 chunks of 4 requests: the trailing half chunk is dropped, the fast
    # decile of the chunks stands for the run, and the program's own
    # latencies are not scaled.
    latencies = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0, 500.0, 600.0]
    summary = harness.summarise([OpResult(latencies_ms=latencies)], [1.2], served)
    assert summary["latency_p50_ms"] == pytest.approx(2.5 + 0.1 * 22.5)
    assert "throughput_per_s" not in summary
    # An operation shorter than a chunk is one sample, not none.
    short = harness.summarise([OpResult(latencies_ms=[5.0, 7.0])], [1.0], served)
    assert short["latency_p50_ms"] == 6.0

    paced = SimpleNamespace(host_bound=False, latency_chunk=None, nominal_units=1.0)
    # Paced by the simulated clock: operations pool into one sample, unscaled.
    ops = [
        OpResult(units=10.0, busy_s=1.0, latencies_ms=[100.0] * 10),
        OpResult(units=10.0, busy_s=3.0, latencies_ms=[300.0] * 10),
    ]
    summary = harness.summarise(ops, [1.4, 1.4], paced)
    assert summary["throughput_per_s"] == pytest.approx(5.0)
    assert summary["latency_p50_ms"] == pytest.approx(200.0)


def _result(workload: str, seed: int, throughput: float, failed: int = 0) -> dict:
    values = {"setup_s": 1.0, "throughput_per_s": throughput, "latency_p50_ms": 5.0,
              "latency_p90_ms": 8.0, "peak_rss_mb": 100.0}
    return {
        "schema": harness.RESULT_SCHEMA, "workload": workload, "seed": seed, "trace": False,
        "attempted": 100, "failed": failed,
        "end_to_end": {k: {"value": v, "unit": "x"} for k, v in values.items()},
    }


def test_write_reference_records_full_size_fingerprints_only(tmp_path):
    for seed, smoke in ((0, False), (1, True)):
        document = {**_result("stream-warm", seed, 100.0), "smoke": smoke,
                    "fingerprint": {"sha256": f"digest{seed}", "reference": "no-reference"}}
        (tmp_path / f"stream-warm-seed{seed}.json").write_text(json.dumps(document))
    target = tmp_path / "reference.json"
    assert compare.write_reference(tmp_path, target) == 0
    assert json.loads(target.read_text()) == {"stream-warm": {"0": "digest0"}}


def test_compare_verdicts_and_exit_status(tmp_path):
    def write(directory, throughputs, failed=0):
        directory.mkdir()
        for seed, value in enumerate(throughputs):
            document = _result("stream-warm", seed, value, failed)
            (directory / f"stream-warm-seed{seed}.json").write_text(json.dumps(document))
        return compare.load_results(directory)

    base = write(tmp_path / "a", [100.0, 101.0, 99.0, 100.5])
    out = io.StringIO()
    assert compare.compare(base, base, BENCH, stream=out) == 0
    assert "throughput_per_s" in out.getvalue() and ": same" in out.getvalue()
    slower = write(tmp_path / "b", [70.0, 71.0, 69.0, 70.5])
    out = io.StringIO()
    assert compare.compare(base, slower, BENCH, stream=out) == 1
    assert ": worse" in out.getvalue()
    faster = write(tmp_path / "c", [120.0, 121.0, 119.0, 120.5])
    out = io.StringIO()
    assert compare.compare(base, faster, BENCH, stream=out) == 0
    assert ": better" in out.getvalue()
    noisy = write(tmp_path / "d", [70.0, 130.0, 95.0, 105.0])
    out = io.StringIO()
    compare.compare(base, noisy, BENCH, stream=out)
    assert ": unresolved" in out.getvalue()
    failing = write(tmp_path / "e", [100.0, 101.0, 99.0, 100.5], failed=1)
    assert compare.compare(base, failing, BENCH, stream=io.StringIO()) == 1


def test_command_line_writes_a_valid_result_and_pins_the_environment(tmp_path):
    command = [sys.executable, *BENCH["command"][1:], "--workload", "offline-univariate",
               "--seed", "3", "--seconds", "0.1", "--trace", "0", "--smoke",
               "--out", str(tmp_path)]
    root = Path(harness.BENCHMARK_JSON).parent
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert final["correct"] and set(final["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    document = json.loads((tmp_path / "offline-univariate-seed3.json").read_text())
    harness.validate_result(document, BENCH)
    assert set(document["environment"]["threads"].values()) == {"1"}
    assert document["environment"]["seed"] == 3


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, there is nothing to measure."""
    shutil.copy(harness.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        harness.PERF_DIR, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", ".work", "results"),
    )
    command = [sys.executable, *BENCH["command"][1:], "--workload", "stream-warm",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
