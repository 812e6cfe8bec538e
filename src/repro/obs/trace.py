"""Structured tracing: spans with ids, parents and attributes.

A :class:`Tracer` hands out :class:`Span` objects — one per served request
through the serving chain, one per streaming tick, one per adaptation
retrain — and pushes each finished span to its sink (the telemetry session's
JSONL writer, or an in-memory list).

Two properties matter more than feature count:

* **zero RNG touch** — span and trace ids are deterministic per-tracer
  counters, never random draws, so attaching a tracer to a run cannot
  perturb a single experiment RNG stream (the bit-identity contract);
* **cheap when off** — nothing in this module is imported by the hot loops;
  instrumented code holds a single optional telemetry reference and pays one
  ``is None`` check per site when tracing is disabled.

The *active* span is tracked in a :class:`contextvars.ContextVar`, which
works across ``asyncio`` task switches; :func:`current_ids` is what
:meth:`~repro.obs.export.Telemetry.event` uses to stamp trace/span ids onto
event records.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The span currently activated via :meth:`Tracer.span` (context-local).
_ACTIVE: ContextVar[Optional["Span"]] = ContextVar("repro_obs_active_span", default=None)


def current_ids() -> Tuple[Optional[str], Optional[str]]:
    """``(trace_id, span_id)`` of the active span, or ``(None, None)``."""
    span = _ACTIVE.get()
    if span is None:
        return None, None
    return span.trace_id, span.span_id


class Span:
    """One timed operation with an id, a parent and free-form attributes."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_s", "end_s", "attributes", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_s: float,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self._tracer = tracer

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return (self.end_s - self.start_s) * 1000.0

    def end(self, **attributes: Any) -> "Span":
        """Finish the span (idempotent) and push it to the tracer's sink."""
        if self.end_s is None:
            if attributes:
                self.attributes.update(attributes)
            self.end_s = self._tracer.clock()
            self._tracer._finish(self)
        return self

    def to_record(self) -> Dict[str, Any]:
        """The JSONL record of this span (kind, ids, timing, attributes)."""
        return {
            "kind": "span",
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, span={self.span_id}, "
            f"parent={self.parent_id})"
        )


class Tracer:
    """Creates spans with deterministic counter-based ids.

    ``sink`` is called with each finished span; ``None`` collects finished
    spans in :attr:`finished` (handy in tests).  ``clock`` defaults to
    :func:`time.perf_counter` and is injectable for deterministic tests.

    ``scope`` prefixes every id this tracer hands out (``"s01-"`` for shard
    1's child telemetry session).  Two shard tracers both count from 1, so
    without a scope their ids would collide when the parent merges shard
    traces; with it, merged traces stay deterministic *and* collision-free —
    ids are a pure function of (scope, per-tracer ordinal), never RNG.
    """

    def __init__(
        self,
        sink: Optional[Callable[[Span], None]] = None,
        clock: Callable[[], float] = perf_counter,
        scope: str = "",
    ) -> None:
        self.clock = clock
        self.scope = str(scope)
        self._sink = sink
        #: Finished spans, kept only when no sink is attached.
        self.finished: List[Span] = []
        self._next_id = 0

    def _new_id(self) -> str:
        self._next_id += 1
        return f"{self.scope}{self._next_id:012x}"

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes: Any,
    ) -> Span:
        """Start (but do not activate) a span.

        With no explicit ``parent`` the active span (if any) becomes the
        parent; a parentless span roots a new trace.
        """
        if parent is None:
            parent = _ACTIVE.get()
        span_id = self._new_id()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = span_id, None
        return Span(
            self, str(name), trace_id, span_id, parent_id,
            self.clock(), attributes or None,
        )

    def _finish(self, span: Span) -> None:
        if self._sink is not None:
            self._sink(span)
        else:
            self.finished.append(span)

    @contextmanager
    def activate(self, span: Span):
        """Make an existing span the active parent; does NOT end it on exit.

        The streaming engine uses this to parent adaptation-lifecycle spans
        (retrain/gate/swap) under the current ``fleet.tick`` span without
        handing the tick span's lifetime over to a ``with`` block.
        """
        token = _ACTIVE.set(span)
        try:
            yield span
        finally:
            _ACTIVE.reset(token)

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, **attributes: Any):
        """Start, *activate* and (on exit) end a span.

        Activation makes the span the default parent for nested spans and the
        source of :func:`current_ids` for event correlation, across ``await``
        boundaries included.
        """
        span = self.start_span(name, parent=parent, **attributes)
        token = _ACTIVE.set(span)
        try:
            yield span
        finally:
            _ACTIVE.reset(token)
            span.end()
