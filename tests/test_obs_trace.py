"""Unit pins for tracing, the telemetry session and the exporters.

The contract under test:

* span/trace ids are deterministic per-tracer counters — no RNG, so two
  identical runs produce identical id sequences;
* parenting follows the explicit ``parent`` argument, else the active
  (contextvar) span, else the span roots a new trace;
* a :class:`Telemetry` session with ``out_dir`` writes ``trace.jsonl`` (via
  an atomic tmp+rename sink), ``metrics.json`` and ``metrics.prom`` on
  ``finalize``; without one, records stay in memory and ``finalize`` is a
  no-op returning ``{}``.
"""

import json
import re

import pytest

from repro.exceptions import ConfigurationError, SerializationError
from repro.obs.export import (
    METRICS_JSON_FILE,
    METRICS_PROM_FILE,
    TRACE_FILE,
    TRACE_SCHEMA_VERSION,
    JsonlSink,
    Telemetry,
    read_trace,
    write_prometheus,
)
from repro.obs.spec import ObsSpec
from repro.obs.summary import summarize_records, summarize_trace
from repro.obs.trace import Tracer, current_ids


class TestTracer:
    def test_ids_are_deterministic_counters(self):
        def ids(tracer):
            return [tracer.start_span("s").span_id for _ in range(3)]

        assert ids(Tracer()) == ids(Tracer()) == [
            "000000000001", "000000000002", "000000000003",
        ]

    def test_parentless_span_roots_a_new_trace(self):
        span = Tracer().start_span("root")
        assert span.parent_id is None
        assert span.trace_id == span.span_id

    def test_explicit_parent_links_trace_and_parent_ids(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        child = tracer.start_span("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_context_activation_is_the_default_parent(self):
        tracer = Tracer()
        assert current_ids() == (None, None)
        with tracer.span("outer") as outer:
            assert current_ids() == (outer.trace_id, outer.span_id)
            inner = tracer.start_span("inner")
            assert inner.parent_id == outer.span_id
        assert current_ids() == (None, None)
        assert outer.end_s is not None

    def test_activate_parents_without_ending(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with tracer.activate(root):
            child = tracer.start_span("child")
        assert child.parent_id == root.span_id
        assert root.end_s is None

    def test_end_is_idempotent_and_records_once(self):
        tracer = Tracer()
        span = tracer.start_span("s")
        span.end(status="done")
        first_end = span.end_s
        span.end(status="again")
        assert span.end_s == first_end
        assert span.attributes == {"status": "done"}
        assert len(tracer.finished) == 1

    def test_record_layout(self):
        tracer = Tracer()
        span = tracer.start_span("work", tier="edge").end()
        record = span.to_record()
        assert record["kind"] == "span"
        assert record["name"] == "work"
        assert record["attributes"] == {"tier": "edge"}
        assert record["duration_ms"] == pytest.approx(
            (span.end_s - span.start_s) * 1000.0
        )

    def test_injectable_clock(self):
        ticks = iter([1.0, 3.5])
        tracer = Tracer(clock=lambda: next(ticks))
        span = tracer.start_span("s").end()
        assert span.duration_ms == pytest.approx(2500.0)


class TestTelemetrySession:
    def test_in_memory_session_collects_spans_and_events(self):
        telemetry = Telemetry()
        telemetry.tracer.start_span("s").end()
        telemetry.event("e", tick=3)
        assert [s["name"] for s in telemetry.spans] == ["s"]
        assert telemetry.events[0]["name"] == "e"
        assert telemetry.events[0]["tick"] == 3
        assert telemetry.finalize() == {}

    def test_events_disabled_by_spec(self):
        telemetry = Telemetry(spec=ObsSpec(events=False))
        telemetry.event("e")
        assert telemetry.events == []

    def test_events_stamp_active_span_ids(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("outer") as outer:
            telemetry.event("inside")
        telemetry.event("outside")
        inside, outside = telemetry.events
        assert inside["trace_id"] == outer.trace_id
        assert inside["span_id"] == outer.span_id
        assert "trace_id" not in outside

    def test_out_dir_session_writes_all_artifacts(self, tmp_path):
        telemetry = Telemetry(out_dir=tmp_path, name="unit")
        telemetry.registry.counter("hits_total", "Hits.").inc(2)
        telemetry.tracer.start_span("s").end()
        telemetry.event("e")
        paths = telemetry.finalize()
        assert paths["trace"] == tmp_path / TRACE_FILE
        assert paths["metrics_json"] == tmp_path / METRICS_JSON_FILE
        assert paths["metrics_prom"] == tmp_path / METRICS_PROM_FILE
        records = read_trace(paths["trace"])
        assert records[0] == {
            "kind": "header", "schema": TRACE_SCHEMA_VERSION, "name": "unit",
        }
        assert [r["kind"] for r in records[1:]] == ["span", "event"]
        payload = json.loads(paths["metrics_json"].read_text())
        assert payload["kind"] == "obs-metrics-registry"
        assert "hits_total 2" in paths["metrics_prom"].read_text()

    def test_finalize_is_idempotent(self, tmp_path):
        telemetry = Telemetry(out_dir=tmp_path)
        assert telemetry.finalize() == telemetry.finalize()

    def test_records_after_finalize_stay_in_memory(self, tmp_path):
        telemetry = Telemetry(out_dir=tmp_path)
        telemetry.finalize()
        telemetry.tracer.start_span("late").end()
        telemetry.event("late-event")
        assert [s["name"] for s in telemetry.spans] == ["late"]
        assert [e["name"] for e in telemetry.events] == ["late-event"]


class TestSinksAndReaders:
    def test_sink_is_atomic(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.write({"kind": "event", "name": "e"})
        assert not path.exists()  # still on the .tmp side
        assert sink.close() == path
        assert path.exists()
        assert not path.with_suffix(".jsonl.tmp").exists()
        assert sink.close() == path  # idempotent

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ConfigurationError, match="closed"):
            sink.write({"kind": "event"})

    def test_read_trace_missing_file(self, tmp_path):
        with pytest.raises(SerializationError, match="no trace file"):
            read_trace(tmp_path / "absent.jsonl")

    def test_read_trace_malformed_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind":"header"}\nnot json\n')
        with pytest.raises(SerializationError, match="line 2"):
            read_trace(path)

    def test_read_trace_rejects_non_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('["a","list"]\n')
        with pytest.raises(SerializationError, match="not a telemetry record"):
            read_trace(path)

    def test_write_prometheus_round_trip(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("a_total").inc(3)
        path = write_prometheus(registry, tmp_path / "m.prom")
        assert path.read_text() == registry.render_prometheus()


class TestSummary:
    def test_digest_sections_from_synthetic_records(self):
        records = [
            {"kind": "header", "schema": 1, "name": "synthetic"},
            {"kind": "span", "name": "fleet.tick", "duration_ms": 5.0,
             "attributes": {"tick": 0}},
            {"kind": "span", "name": "serve.batch", "duration_ms": 2.0,
             "attributes": {"tier": "edge", "n": 4}},
            {"kind": "event", "name": "serve.overload", "reason": "shed"},
            {"kind": "event", "name": "adapt.swap", "tick": 3, "tier": "edge",
             "from_version": "v-a", "to_version": "v-b"},
            {"kind": "event", "name": "fault.link", "fault": "link-down"},
        ]
        digest = summarize_records(records)
        assert "telemetry digest: synthetic (2 spans, 3 events)" in digest
        assert "fleet.tick" in digest and "tick=0" in digest
        assert "edge" in digest
        assert "shed=1" in digest
        assert "adaptation timeline:" in digest
        assert "fault activations: link-down=1" in digest

    def test_tier_utilization_without_registry_counts_served_batches(self):
        """Without metrics.json the digest counts each served batch's rows at
        its tier; request and adapt.retrain spans carry a tier too but add
        nothing."""
        records = [{"kind": "header", "schema": 1, "name": "tiers"}]
        for i in range(5):
            records.append({"kind": "span", "name": "serve.request", "duration_ms": 1.0,
                            "attributes": {"tier": "iot" if i < 3 else "edge"}})
        records += [
            {"kind": "span", "name": "serve.batch", "duration_ms": 1.0,
             "attributes": {"tier": "iot", "n": 3}},
            {"kind": "span", "name": "serve.batch", "duration_ms": 1.0,
             "attributes": {"tier": "edge", "n": 2}},
            {"kind": "span", "name": "adapt.retrain", "duration_ms": 1.0,
             "attributes": {"tier": "edge", "tick": 2}},
        ]
        digest = summarize_records(records)
        assert re.search(r"^  iot +3  \( 60\.0%\)$", digest, re.MULTILINE), digest
        assert re.search(r"^  edge +2  \( 40\.0%\)$", digest, re.MULTILINE), digest
        fleet_only = [r for r in records if r.get("name") != "serve.batch"]
        assert "tier utilization:" not in summarize_records(fleet_only)

    def test_summarize_trace_accepts_directory(self, tmp_path):
        telemetry = Telemetry(out_dir=tmp_path, name="dirrun")
        telemetry.tracer.start_span("s").end()
        telemetry.finalize()
        assert "dirrun" in summarize_trace(tmp_path)
