"""Live observability: followers, the watch loop and the top/tail views.

Covers the liveness half of the trace contract — a follower reading a sink
that is still being written must defer a torn tail, never error on it, and
survive the ``.tmp`` -> final rename — plus the :class:`RollupWatcher`
cadence/event stream and the ``repro obs top``/``obs tail`` CLI surface.
"""

import json

import pytest

from repro.cli import main
from repro.exceptions import SerializationError
from repro.obs.export import Telemetry, TraceFollower, read_trace
from repro.obs.live import RollupWatcher, TopView, format_tail_line


def _record(kind, name, **fields):
    return {"kind": kind, "name": name, **fields}


def _write_lines(path, records, partial=None):
    data = "".join(json.dumps(r) + "\n" for r in records)
    if partial is not None:
        data += partial  # no trailing newline: a torn tail
    path.write_text(data)


HEADER = _record("header", "live-test", schema=1)
SPANS = [
    _record("span", "serve.request", span_id=f"{i:012x}", duration_ms=5.0 + i,
            attributes={"tier": "edge" if i % 2 else "cloud", "latency_ms": 10.0 * (i + 1)})
    for i in range(4)
]


class TestReadTraceTolerantTail:
    def test_truncated_final_line_dropped_in_tolerant_mode(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _write_lines(trace, [HEADER] + SPANS, partial='{"kind": "span", "na')
        records = read_trace(trace, tolerate_partial_tail=True)
        assert len(records) == 1 + len(SPANS)

    def test_truncated_final_line_raises_in_strict_mode(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _write_lines(trace, [HEADER], partial='{"kind": "span", "na')
        with pytest.raises(SerializationError, match="malformed JSON"):
            read_trace(trace)

    def test_torn_middle_line_raises_even_in_tolerant_mode(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps(HEADER) + "\n" + '{"kind": "span", "na\n' + json.dumps(SPANS[0]) + "\n"
        )
        with pytest.raises(SerializationError, match="line 2"):
            read_trace(trace, tolerate_partial_tail=True)

    def test_complete_final_line_without_newline_kept(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _write_lines(trace, [HEADER], partial=json.dumps(SPANS[0]))
        records = read_trace(trace, tolerate_partial_tail=True)
        assert len(records) == 2


class TestTraceFollower:
    def test_incremental_polls_return_only_new_records(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        _write_lines(trace, [HEADER, SPANS[0]])
        follower = TraceFollower(trace)
        assert [r["kind"] for r in follower.poll()] == ["header", "span"]
        assert follower.poll() == []
        with trace.open("a") as handle:
            handle.write(json.dumps(SPANS[1]) + "\n")
        assert [r["name"] for r in follower.poll()] == ["serve.request"]

    def test_torn_tail_held_back_until_complete(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        line = json.dumps(SPANS[0]) + "\n"
        _write_lines(trace, [HEADER], partial=line[:10])
        follower = TraceFollower(trace)
        assert len(follower.poll()) == 1  # header only; torn tail deferred
        with trace.open("a") as handle:
            handle.write(line[10:])
        assert [r["name"] for r in follower.poll()] == ["serve.request"]

    def test_reads_tmp_sink_and_survives_rename(self, tmp_path):
        final = tmp_path / "trace.jsonl"
        tmp = tmp_path / "trace.jsonl.tmp"
        _write_lines(tmp, [HEADER, SPANS[0]])
        follower = TraceFollower(final)
        assert follower.finalized is False
        assert len(follower.poll()) == 2
        # Finalize: append one record, rename into place (same content).
        with tmp.open("a") as handle:
            handle.write(json.dumps(SPANS[1]) + "\n")
        tmp.rename(final)
        assert follower.finalized is True
        assert len(follower.poll()) == 1  # the offset survived the rename

    def test_directory_path_resolves_to_trace_file(self, tmp_path):
        _write_lines(tmp_path / "trace.jsonl", [HEADER])
        follower = TraceFollower(tmp_path)
        assert len(follower.poll()) == 1

    def test_missing_file_polls_empty(self, tmp_path):
        follower = TraceFollower(tmp_path / "trace.jsonl")
        assert follower.poll() == []
        assert follower.finalized is False

    def test_malformed_middle_line_skipped_not_fatal(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps(HEADER) + "\n" + "not json at all\n" + json.dumps(SPANS[0]) + "\n"
        )
        records = TraceFollower(trace).poll()
        assert [r["kind"] for r in records] == ["header", "span"]


#: The served batches behind ``SPANS``: one per tier, two rows each.
BATCHES = [
    _record("span", "serve.batch", span_id=f"b{i:011x}", attributes={"tier": tier, "n": 2})
    for i, tier in enumerate(("cloud", "edge"))
]


class TestTopView:
    def test_digest_from_records(self):
        view = TopView(slo_p99_ms=100.0)
        view.update([HEADER] + SPANS + BATCHES)
        view.update([
            _record("event", "watch.rollup", key=4.0, label="serve",
                    alerts=[], served_rate=2.5, queue_depth=3),
            _record("event", "serve.overload", reason="shed", queue_depth=9),
        ])
        digest = view.render()
        assert "live-test" in digest
        assert "edge=2 (50%)" in digest
        assert "SLO 100ms" in digest
        assert "queue depth: 9" in digest
        assert "overload events: 1" in digest
        assert "served/s=2.50" in digest
        assert "alerts: none" in digest
        # Nearest rank on 4 samples [10, 20, 30, 40]: the ceil(q * 4)-th value.
        assert view.p99_ms == 40.0
        assert view.p50_ms == 20.0

    def test_percentiles_are_nearest_rank(self):
        view = TopView()
        view.latencies.extend([3.0, 1.0, 2.0])
        assert view.p50_ms == 2.0
        assert view.p99_ms == 3.0
        view.latencies.clear()
        view.latencies.append(7.0)
        assert view.p50_ms == view.p99_ms == 7.0

    def test_tier_counts_are_served_batch_rows(self):
        """Each request counts once, at the tier its batch's end names: not
        again through its request span, and never through an adapt.retrain
        span (which serves nothing)."""
        view = TopView()
        view.update(SPANS + [
            _record("span", "serve.batch", span_id="b1",
                    attributes={"tier": "edge", "n": 3}),
            _record("span", "serve.batch", span_id="b2",
                    attributes={"tier": "cloud", "n": 1}),
            _record("span", "adapt.retrain", span_id="r1",
                    attributes={"tier": "edge", "tick": 4}),
        ])
        assert view.tier_counts == {"edge": 3, "cloud": 1}
        assert "tiers: cloud=1 (25%)  edge=3 (75%)" in view.render()

    def test_alert_lifecycle_tracked(self):
        view = TopView()
        view.update([_record("event", "alert.fire", alert="slo-burn-rate", key=2.0)])
        assert "ALERTS: slo-burn-rate" in view.render()
        view.update([_record("event", "alert.resolve", alert="slo-burn-rate", key=5.0)])
        assert "alerts: none" in view.render()

    def test_tick_from_fleet_spans(self):
        view = TopView()
        view.update([
            _record("span", "fleet.tick", span_id="x", attributes={"tick": 7}),
        ])
        assert "tick: 7" in view.render()


class TestFormatTailLine:
    def test_header_span_event_lines(self):
        assert format_tail_line(HEADER) == "# trace 'live-test' schema=1"
        span_line = format_tail_line(SPANS[0])
        assert span_line.startswith("span  serve.request 5.00ms")
        assert "tier=cloud" in span_line
        event_line = format_tail_line(
            _record("event", "alert.fire", alert="x", time_s=1.0, span_id="s")
        )
        assert event_line == "event alert.fire alert=x"


class TestRollupWatcher:
    def _watcher(self, every=2.0, printer=None):
        telemetry = Telemetry(name="watch-test")
        counter = telemetry.registry.counter(
            "serve_requests_total", labelnames=("status",)
        )
        watcher = RollupWatcher(
            telemetry, rules=(), every=every, label="serve", printer=printer
        )
        return telemetry, counter, watcher

    def test_cadence_skips_unadvanced_keys(self):
        telemetry, counter, watcher = self._watcher(every=2.0)
        for key in range(1, 9):
            counter.labels(status="served").value += 3
            watcher.observe(float(key))
        # Snapshots at 1, 3, 5, 7 -> three evaluated windows.
        assert watcher.n_windows == 3
        rollups = [e for e in telemetry.events if e["name"] == "watch.rollup"]
        assert [e["key"] for e in rollups] == [3.0, 5.0, 7.0]
        assert all(e["label"] == "serve" for e in rollups)

    def test_rollup_event_carries_stats_and_extra(self):
        telemetry, counter, watcher = self._watcher(every=1.0)
        watcher.observe(1.0)
        counter.labels(status="served").value += 10
        counter.labels(status="shed").value += 2
        watcher.observe(3.0, queue_depth=5)
        (event,) = [e for e in telemetry.events if e["name"] == "watch.rollup"]
        assert event["served_rate"] == 5.0
        assert event["shed_delta"] == 2.0
        assert event["queue_depth"] == 5
        assert event["alerts"] == []

    def test_printer_receives_digest_lines(self):
        lines = []
        telemetry, counter, watcher = self._watcher(every=1.0, printer=lines.append)
        watcher.observe(1.0)
        counter.labels(status="served").value += 4
        watcher.observe(2.0)
        assert len(lines) == 1
        assert lines[0].startswith("[serve @2]")
        assert "served/s=4.00" in lines[0]
        assert "alerts=none" in lines[0]

    def test_non_monotone_keys_ignored(self):
        telemetry, counter, watcher = self._watcher(every=1.0)
        watcher.observe(5.0)
        watcher.observe(3.0)  # stale key: ignored, not an error
        counter.labels(status="served").value += 1
        watcher.observe(6.0)
        assert watcher.n_windows == 1


class TestCliObsLive:
    @pytest.fixture()
    def trace_dir(self, tmp_path):
        _write_lines(
            tmp_path / "trace.jsonl",
            [HEADER] + SPANS + [
                _record("event", "watch.rollup", key=4.0, label="serve",
                        alerts=["slo-burn-rate"], served_rate=1.5, queue_depth=2),
            ],
        )
        return tmp_path

    def test_obs_top_one_shot(self, trace_dir, capsys):
        assert main(["obs", "top", str(trace_dir), "--slo-ms", "100"]) == 0
        out = capsys.readouterr().out
        assert "== live-test ::" in out
        assert "SLO 100ms" in out
        assert "ALERTS: slo-burn-rate" in out

    def test_obs_top_follow_bounded_by_duration(self, trace_dir, capsys):
        code = main([
            "obs", "top", str(trace_dir),
            "--follow", "--interval", "0.01", "--duration", "0.05",
        ])
        assert code == 0
        assert "== live-test ::" in capsys.readouterr().out

    def test_obs_tail_one_shot(self, trace_dir, capsys):
        assert main(["obs", "tail", str(trace_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# trace 'live-test' schema=1"
        assert sum(1 for l in lines if l.startswith("span  serve.request")) == 4
        assert any(l.startswith("event watch.rollup") for l in lines)
