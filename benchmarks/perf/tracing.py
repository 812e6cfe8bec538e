"""Span recording for the traced run: timing wrappers on public callables.

The program under test is measured from outside.  :meth:`Tracer.install`
replaces each listed public callable with a wrapper that records one span per
call (name, start, end, parent) on a per-thread span stack kept in memory;
:meth:`Tracer.uninstall` puts the originals back.  Every span also folds into
a running total per ``(name, parent name)`` — calls, busy seconds, self
seconds and work units — so a boundary entered more than ``FOLD_AFTER`` times
is written as those totals instead of one record per call.

Self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Boundaries entered more often than this are written folded (totals only).
FOLD_AFTER = 10_000

#: ``units(args, kwargs, result) -> work units`` of one call (e.g. windows).
UnitsFn = Callable[[tuple, dict, object], float]

#: ``(target, span name, units)``; ``target`` is ``"module:Class.attr"`` or
#: ``"module:function"``.
Boundary = Tuple[str, str, Optional[UnitsFn]]


#: ``parent`` filter matching every parent (``None`` matches root spans only).
ANY = "*"


def _count(units: Optional[UnitsFn], args: tuple, kwargs: dict, result) -> float:
    """Work units of one call; a call shaped unlike ``units`` expects counts 0
    rather than disturbing the program under test."""
    if units is None:
        return 0.0
    try:
        return float(units(args, kwargs, result))
    except (IndexError, TypeError, AttributeError):
        return 0.0


def resolve(target: str):
    """``(owner, attribute)`` of a ``"module:Class.attr"`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span stack, per-boundary totals and wrapper bookkeeping."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        #: Individual spans: ``(id, name, parent id, start, end)``.
        self.records: List[tuple] = []
        #: ``(name, parent name) -> [calls, busy_s, self_s, units]``.
        self.totals: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: Free-form sample lists recorded by special wrappers.
        self.samples: Dict[str, List[float]] = {}
        self._kept: Dict[str, int] = {}
        self._local = threading.local()
        # The serving path detects on an executor thread while the event loop
        # thread extracts contexts; both fold into the shared totals.
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: List[tuple] = []

    # -- recording ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        frame = [next(self._ids), name, perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, frame: list, units: float) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, name, start, child_s = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        key = (name, parent[1] if parent is not None else None)
        with self._lock:
            total = self.totals.get(key)
            if total is None:
                total = self.totals[key] = [0, 0.0, 0.0, 0.0]
            total[0] += 1
            total[1] += duration
            total[2] += duration - child_s
            total[3] += units
            kept = self._kept.get(name, 0)
            if kept <= FOLD_AFTER:
                self._kept[name] = kept + 1
                self.records.append(
                    (span_id, name, parent[0] if parent is not None else None, start, end)
                )

    @contextmanager
    def span(self, name: str, units: float = 0.0):
        """A span around the harness's own call into a layer."""
        frame = self._enter(name)
        try:
            yield frame
        finally:
            self._exit(frame, units)

    def _wrap(self, name: str, original, units: Optional[UnitsFn]):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._exit(frame, _count(units, args, kwargs, result))

        return wrapper

    # -- wrapper lifecycle --------------------------------------------------------

    def replace(self, target: str, make_wrapper: Callable) -> None:
        """Swap ``target`` for ``make_wrapper(original)`` until :meth:`uninstall`."""
        owner, attr = resolve(target)
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self._installed.append((owner, attr, original))

    def install(self, boundaries: Iterable[Boundary]) -> None:
        """Wrap every boundary with a span-recording wrapper."""
        for target, name, units in boundaries:
            self.replace(
                target, lambda original, n=name, u=units: self._wrap(n, original, u)
            )

    def uninstall(self) -> None:
        """Put every original callable back (reverse order of installation)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------------

    def _sum(self, name: str, column: int, parent: Optional[str]) -> float:
        return sum(
            total[column]
            for (span, span_parent), total in self.totals.items()
            if span == name and (parent == ANY or span_parent == parent)
        )

    def calls(self, name: str, parent: Optional[str] = ANY) -> float:
        return self._sum(name, 0, parent)

    def busy(self, name: str, parent: Optional[str] = ANY) -> float:
        return self._sum(name, 1, parent)

    def self_s(self, name: str, parent: Optional[str] = ANY) -> float:
        return self._sum(name, 2, parent)

    def units(self, name: str, parent: Optional[str] = ANY) -> float:
        return self._sum(name, 3, parent)

    def write(self, path: Path) -> int:
        """Write the trace as JSON lines; returns the number of records."""
        folded = {name for name, kept in self._kept.items() if kept > FOLD_AFTER}
        lines = [
            {"kind": "header", "trace": self.trace_id, "fold_after": FOLD_AFTER}
        ]
        for span_id, name, parent, start, end in self.records:
            if name not in folded:
                lines.append(
                    {
                        "kind": "span",
                        "trace": self.trace_id,
                        "id": span_id,
                        "name": name,
                        "parent": parent,
                        "start": start,
                        "end": end,
                    }
                )
        for (name, parent_name), (calls, busy_s, self_s, units) in sorted(
            self.totals.items(), key=lambda item: (item[0][0], str(item[0][1]))
        ):
            lines.append(
                {
                    "kind": "folded" if name in folded else "total",
                    "trace": self.trace_id,
                    "name": name,
                    "parent_name": parent_name,
                    "calls": int(calls),
                    "busy_s": busy_s,
                    "self_s": self_s,
                    "units": units,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        return len(lines)
