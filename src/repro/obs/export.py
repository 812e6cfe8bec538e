"""Telemetry exporters and the per-run :class:`Telemetry` session object.

:class:`JsonlSink` writes span/event records incrementally to a ``.tmp``
file, fsyncs it and atomically renames it into place on
:meth:`JsonlSink.close`, so a crashed run never leaves a half-written file
masquerading as a complete trace (the partial ``.tmp`` stays inspectable
next to it).  Unlike :class:`~repro.fleet.checkpoint.CheckpointStore` it
does not fsync the directory: a trace is re-recorded, never resumed from.

:class:`Telemetry` bundles the three pillars for one run — a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.trace.Tracer` wired into the JSONL sink, and a structured
event stream — behind the single optional reference the instrumented
subsystems hold.  :meth:`Telemetry.finalize` closes the sink and dumps the
final registry as both JSON (:meth:`~repro.obs.metrics.MetricsRegistry.
to_payload`) and Prometheus text exposition.

File layout under ``out_dir``::

    trace.jsonl    # header line + span/event records, one JSON object per line
    metrics.json   # the registry payload (mergeable, round-trippable)
    metrics.prom   # Prometheus text exposition of the same registry

With ``out_dir=None`` everything stays in memory (:attr:`Telemetry.spans`,
:attr:`Telemetry.events`), which is what the bit-identity tests and the
benchmark harness use.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.exceptions import ConfigurationError, SerializationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spec import ObsSpec
from repro.obs.trace import Span, Tracer, current_ids

PathLike = Union[str, Path]

#: Bumped when the JSONL record layout changes; stamped on the header line.
TRACE_SCHEMA_VERSION = 1

#: File names written under the telemetry directory.
TRACE_FILE = "trace.jsonl"
METRICS_JSON_FILE = "metrics.json"
METRICS_PROM_FILE = "metrics.prom"

#: Version stamp of the compact shard-telemetry payload returned by workers.
SHARD_PAYLOAD_VERSION = 1


def shard_obs_dir(base: PathLike, shard_index: int) -> str:
    """Shard ``shard_index``'s telemetry sink directory under ``base``.

    Mirrors :func:`~repro.fleet.checkpoint.shard_checkpoint_dir` so a sharded
    telemetered run and a sharded checkpointed run lay out their per-shard
    state identically (``<base>/shard-NN/``).
    """
    return str(Path(base) / f"shard-{int(shard_index):02d}")


class JsonlSink:
    """Incremental JSONL writer with an atomic tmp+rename close.

    ``line_buffered=True`` flushes after every record so a live reader
    (``repro obs top --follow``) sees spans while the run is still going;
    the default buffers normally — cheaper, and the atomic close publishes
    everything at once.
    """

    def __init__(self, path: PathLike, line_buffered: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.line_buffered = bool(line_buffered)
        self._tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        self._handle = self._tmp.open("w", encoding="utf-8")
        self.n_records = 0

    @property
    def closed(self) -> bool:
        return self._handle is None

    def write(self, record: Mapping[str, Any]) -> None:
        """Append one record as a compact JSON line."""
        if self._handle is None:
            raise ConfigurationError(f"JSONL sink {self.path} is already closed")
        json.dump(record, self._handle, separators=(",", ":"), sort_keys=True)
        self._handle.write("\n")
        self.n_records += 1
        if self.line_buffered:
            self._handle.flush()

    def close(self) -> Path:
        """Flush, fsync and atomically rename the tmp file into place."""
        if self._handle is None:
            return self.path
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None
        os.replace(self._tmp, self.path)
        return self.path


def write_prometheus(registry: MetricsRegistry, path: PathLike) -> Path:
    """Dump ``registry`` in Prometheus text exposition format (tmp+rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(registry.render_prometheus())
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def read_trace(
    path: PathLike, tolerate_partial_tail: bool = False
) -> List[Dict[str, Any]]:
    """Parse a ``trace.jsonl`` file; malformed lines raise cleanly.

    ``tolerate_partial_tail=True`` reads a file that is still being written
    (or died mid-write): a *final* line that is malformed or missing its
    newline is silently dropped instead of raising — it is the half-flushed
    record a live writer has not finished yet.  Malformed lines anywhere
    else still raise; torn middle lines are corruption, not liveness.
    """
    path = Path(path)
    if not path.is_file():
        raise SerializationError(f"no trace file at {path}")
    data = path.read_bytes()
    records = []
    lines = data.split(b"\n")
    ends_with_newline = data.endswith(b"\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        # The only candidate for a partially-written record is the very last
        # line of a file with no trailing newline.
        partial_candidate = (
            tolerate_partial_tail and not ends_with_newline and lineno == len(lines)
        )
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if partial_candidate:
                continue
            raise SerializationError(
                f"malformed JSON on line {lineno} of {path}: {exc}"
            ) from exc
        if not isinstance(record, dict) or "kind" not in record:
            if partial_candidate:
                continue
            raise SerializationError(
                f"line {lineno} of {path} is not a telemetry record "
                "(an object with a 'kind' field)"
            )
        records.append(record)
    return records


class TraceFollower:
    """Incremental ``trace.jsonl`` reader for live runs (``--follow``).

    Tracks a byte offset and returns only complete new records on each
    :meth:`poll`.  Two liveness details matter:

    * a running :class:`Telemetry` session writes to ``trace.jsonl.tmp`` and
      renames on finalize — the follower reads whichever exists, and the
      byte offset survives the rename because the content is identical;
    * the final line may be partially written at read time (appends are not
      atomic); the follower holds everything after the last newline back
      until the line completes, so a torn tail is *deferred*, never an
      error (pinned by the truncated-tail test).
    """

    def __init__(self, path: PathLike) -> None:
        path = Path(path)
        if path.is_dir():
            path = path / TRACE_FILE
        self.path = path
        self._offset = 0

    @property
    def finalized(self) -> bool:
        """Whether the sink has been atomically renamed into place."""
        return self.path.is_file()

    def _source(self) -> Optional[Path]:
        if self.path.is_file():
            return self.path
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        if tmp.is_file():
            return tmp
        return None

    def poll(self) -> List[Dict[str, Any]]:
        """All complete records appended since the last poll (maybe empty)."""
        source = self._source()
        if source is None:
            return []
        with source.open("rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        end = data.rfind(b"\n")
        if end < 0:
            return []
        chunk = data[: end + 1]
        self._offset += end + 1
        records = []
        for raw in chunk.split(b"\n"):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A complete-but-malformed line mid-stream: skip it rather
                # than kill a live view (the strict read_trace still raises
                # for offline reads).
                continue
            if isinstance(record, dict) and "kind" in record:
                records.append(record)
        return records


class Telemetry:
    """One run's telemetry session: registry + tracer + event/span sinks.

    The instrumented subsystems (engine, server, controller, runner) each
    hold one optional reference to this object; every recording site is
    guarded by a single ``is None`` check (the fleet engine checks once per
    run and observes through a no-op seam when disabled), and nothing here
    draws RNG — the two halves of the zero-cost-when-disabled /
    bit-identical-when-enabled contract.
    """

    def __init__(
        self,
        out_dir: Optional[PathLike] = None,
        spec: Optional[ObsSpec] = None,
        name: str = "run",
        scope: str = "",
    ) -> None:
        self.spec = spec or ObsSpec()
        self.name = str(name)
        self.scope = str(scope)
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.registry = MetricsRegistry()
        #: Finished span records (in-memory mirror; JSONL-backed when out_dir).
        self.spans: List[Dict[str, Any]] = []
        #: Structured event records (same layout as the JSONL lines).
        self.events: List[Dict[str, Any]] = []
        self.tracer = Tracer(sink=self._record_span, scope=self.scope)
        #: Optional :class:`~repro.obs.live.RollupWatcher` the instrumented
        #: loops drive at tick/request boundaries (``--watch`` and alerting).
        #: Purely observational: it reads the registry, never the run state.
        self.watcher = None
        self._sink: Optional[JsonlSink] = None
        self._finalized: Optional[Dict[str, Path]] = None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            self._sink = JsonlSink(
                self.out_dir / TRACE_FILE, line_buffered=self.spec.flush
            )
            header: Dict[str, Any] = {
                "kind": "header",
                "schema": TRACE_SCHEMA_VERSION,
                "name": self.name,
            }
            if self.scope:
                header["scope"] = self.scope
            self._sink.write(header)

    # -- recording --------------------------------------------------------------

    @property
    def trace_enabled(self) -> bool:
        return self.spec.trace

    def _record_span(self, span: Span) -> None:
        record = span.to_record()
        if self._sink is not None and not self._sink.closed:
            self._sink.write(record)
        else:
            self.spans.append(record)

    def event(self, name: str, **fields: Any) -> None:
        """Record one structured event (a timestamped JSONL line).

        When a span is active (see :meth:`Tracer.activate`/:meth:`Tracer.span`)
        the event is stamped with its trace/span ids so it can be joined back
        onto the span tree.
        """
        if not self.spec.events:
            return
        reserved = {"kind", "name", "time_s"} & fields.keys()
        if reserved:
            # A field named "kind" would silently overwrite the record
            # schema and hide the event from every kind == "event" consumer.
            raise ConfigurationError(
                f"event {name!r} uses reserved field(s) {sorted(reserved)}"
            )
        record: Dict[str, Any] = {
            "kind": "event",
            "name": str(name),
            "time_s": self.tracer.clock(),
        }
        trace_id, span_id = current_ids()
        if trace_id is not None:
            record["trace_id"] = trace_id
            record["span_id"] = span_id
        record.update(fields)
        if self._sink is not None and not self._sink.closed:
            self._sink.write(record)
        else:
            self.events.append(record)

    # -- sharded runs ------------------------------------------------------------

    def child(self, shard_index: int) -> "Telemetry":
        """Shard ``shard_index``'s child session (the in-process path).

        The child mirrors the checkpoint layout — ``<out_dir>/shard-NN/``
        sinks when this session writes to disk, in-memory records otherwise —
        and scopes its tracer ids (``s01-...``) so merged traces stay
        collision-free.  Fold it back with :meth:`absorb_shard`.
        """
        return self.shard_config().child(shard_index)

    def shard_config(self) -> "ShardObsConfig":
        """The frozen recipe each shard builds its child session from.

        Picklable, because it crosses a process boundary in the shard's
        payload — unlike the live session with its open file handle.
        """
        return ShardObsConfig(
            dir=str(self.out_dir) if self.out_dir is not None else None,
            name=self.name,
            spec=self.spec,
        )

    def shard_payload(self) -> Dict[str, Any]:
        """This child session's compact payload for the parent to absorb.

        Disk-backed children finalize their ``shard-NN/`` sink first and
        return only the registry (the spans are already durable in the shard
        directory); in-memory children return spans and events too, so
        nothing is lost on the in-process path.
        """
        payload: Dict[str, Any] = {
            "kind": "obs-shard",
            "version": SHARD_PAYLOAD_VERSION,
            "scope": self.scope,
            "registry": self.registry.to_payload(),
        }
        if self.out_dir is not None:
            self.finalize()
            payload["dir"] = str(self.out_dir)
        else:
            payload["spans"] = list(self.spans)
            payload["events"] = list(self.events)
        return payload

    def absorb_shard(self, payload: Mapping[str, Any]) -> None:
        """Fold one shard's :meth:`shard_payload` into this parent session.

        The registry folds through the deterministic merge algebra; span and
        event records from in-memory children are re-emitted through this
        session's sink (their ids carry the shard scope, so they cannot
        collide with the parent's or another shard's).  Shards are absorbed
        in shard order, so the merged trace is deterministic.
        """
        if payload.get("kind") != "obs-shard":
            raise ConfigurationError(
                f"not a shard telemetry payload: kind={payload.get('kind')!r}"
            )
        if payload.get("version") != SHARD_PAYLOAD_VERSION:
            raise ConfigurationError(
                f"shard telemetry payload version {payload.get('version')!r} "
                f"is not readable by this build (version {SHARD_PAYLOAD_VERSION})"
            )
        self.registry.merge_from(MetricsRegistry.from_payload(payload["registry"]))
        for record in payload.get("spans", ()):
            self._write_record(record, self.spans)
        for record in payload.get("events", ()):
            self._write_record(record, self.events)

    def _write_record(self, record: Dict[str, Any], fallback: List[Dict[str, Any]]) -> None:
        if self._sink is not None and not self._sink.closed:
            self._sink.write(record)
        else:
            fallback.append(record)

    # -- finalisation -----------------------------------------------------------

    def finalize(self) -> Dict[str, Path]:
        """Close the JSONL sink and dump the registry (idempotent).

        Returns the written paths (empty when the session is in-memory only).
        """
        if self._finalized is not None:
            return self._finalized
        paths: Dict[str, Path] = {}
        if self._sink is not None:
            paths["trace"] = self._sink.close()
        if self.out_dir is not None:
            from repro.utils.serialization import save_json

            paths["metrics_json"] = save_json(
                self.out_dir / METRICS_JSON_FILE, self.registry.to_payload()
            )
            paths["metrics_prom"] = write_prometheus(
                self.registry, self.out_dir / METRICS_PROM_FILE
            )
        self._finalized = paths
        return paths


@dataclass(frozen=True)
class ShardObsConfig:
    """How a shard worker rebuilds its child :class:`Telemetry` session.

    A live session holds an open file handle and cannot cross a process
    boundary; this frozen value can — it rides in every shard's payload
    (inherited under ``fork``, pickled under ``spawn``) and
    :func:`repro.fleet.sharding.run_shard` builds the child from it.
    """

    #: The *parent* session's output directory (``None`` = in-memory child).
    dir: Optional[str]
    name: str
    spec: ObsSpec

    def child(self, shard_index: int) -> Telemetry:
        """Build shard ``shard_index``'s child session from this recipe."""
        index = int(shard_index)
        return Telemetry(
            out_dir=shard_obs_dir(self.dir, index) if self.dir is not None else None,
            spec=self.spec,
            name=f"{self.name}/shard-{index:02d}",
            scope=f"s{index:02d}-",
        )
