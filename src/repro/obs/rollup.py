"""Sliding-window rollups over :class:`~repro.obs.metrics.MetricsRegistry`.

The registry is cumulative — counters only ever grow — which is the right
shape for whole-run exports but useless for *online* health questions
("what is the shed rate right now?", "what is the rolling p99?").  This
module adds the missing derivative: a :class:`RollupRing` holds a bounded
ring of registry snapshots keyed by a monotone progress key (the fleet tick,
the served-request count), and a :class:`Rollup` between two snapshots turns
the cumulative counts into window-local rates, deltas and Prometheus-style
interpolated quantiles (via :func:`~repro.obs.metrics.estimate_quantile`,
whose estimates are exact under merge reordering).

Everything here is pure arithmetic over payload snapshots: pushing a
snapshot copies the registry through its own payload contract, so a rollup
can never alias (let alone mutate) live cells, and nothing touches an RNG —
rollups ride on the same pure-observer contract as the rest of the layer.
The consumers are :mod:`repro.obs.alerts` (burn-rate windows) and the
``--watch``/``repro obs top`` live views.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.metrics import (
    MetricsRegistry,
    estimate_fraction_above,
    estimate_quantile,
)

#: Default ring capacity: enough for an 8-snapshot slow burn window plus the
#: fast window and the freshest pair, without unbounded growth.
DEFAULT_CAPACITY = 16

#: A label filter: ``(("status", "shed"),)`` matches one child,
#: ``(("status", ("shed", "rejected")),)`` sums matching children, ``()``
#: sums the whole family.
LabelFilter = Tuple[Tuple[str, Any], ...]


def _matches(family, key: Tuple[str, ...], labels: LabelFilter) -> bool:
    for name, wanted in labels:
        try:
            position = family.labelnames.index(name)
        except ValueError:
            raise ConfigurationError(
                f"metric {family.name!r} has labels {family.labelnames}, "
                f"no label {name!r}"
            ) from None
        value = key[position]
        if isinstance(wanted, (tuple, list, set, frozenset)):
            if value not in {str(v) for v in wanted}:
                return False
        elif value != str(wanted):
            return False
    return True


class _Snapshot:
    """One (key, frozen registry copy) point on the progress axis."""

    __slots__ = ("key", "registry")

    def __init__(self, key: float, registry: MetricsRegistry) -> None:
        self.key = float(key)
        # Round-tripping through the payload is the registry's own deep-copy:
        # the snapshot can never alias live cells.
        self.registry = MetricsRegistry.from_payload(registry.to_payload())


class Rollup:
    """The window between two registry snapshots: deltas, rates, quantiles.

    Counter reads accept a label filter (see :data:`LabelFilter`) whose
    values may be tuples — ``labels=(("status", ("shed", "rejected")),)``
    sums both children, which is how burn-rate rules pool every overload
    status into one numerator.  Referencing a metric no registry in the
    window has ever seen raises :class:`~repro.exceptions.ConfigurationError`
    by name — a misspelled alert rule must fail loudly, not evaluate to a
    silent healthy zero.
    """

    def __init__(self, base: _Snapshot, latest: _Snapshot) -> None:
        self._base = base
        self._latest = latest

    @property
    def span(self) -> float:
        """Progress covered by the window (ticks, requests, ...)."""
        return self._latest.key - self._base.key

    def has(self, name: str) -> bool:
        """Whether the window's newest snapshot knows metric ``name``."""
        return self._latest.registry.get(name) is not None

    def _family(self, name: str):
        family = self._latest.registry.get(name)
        if family is None:
            raise ConfigurationError(
                f"unknown metric {name!r}: no registry snapshot in this "
                "window has recorded it"
            )
        return family

    def _summed(self, registry: MetricsRegistry, name: str, labels: LabelFilter) -> float:
        family = registry.get(name)
        if family is None:
            return 0.0
        total = 0.0
        for key, cell in family._children.items():
            if _matches(family, key, labels):
                total += cell.value
        return total

    def delta(self, name: str, labels: LabelFilter = ()) -> float:
        """Counter increase across the window (summed over the filter)."""
        family = self._family(name)
        if family.kind == "histogram":
            counts, _ = self._bucket_deltas(name, labels)
            return float(sum(counts))
        if family.kind != "counter":
            raise ConfigurationError(
                f"metric {name!r} is a {family.kind}; deltas need a counter "
                "or histogram (read gauges with .level())"
            )
        latest = self._summed(self._latest.registry, name, labels)
        base = self._summed(self._base.registry, name, labels)
        return latest - base

    def rate(self, name: str, labels: LabelFilter = ()) -> float:
        """Counter increase per unit of progress key (0 on an empty span)."""
        span = self.span
        if span <= 0:
            return 0.0
        return self.delta(name, labels) / span

    def level(self, name: str, labels: LabelFilter = ()) -> float:
        """The newest snapshot's gauge/counter value (not a delta)."""
        self._family(name)
        return self._summed(self._latest.registry, name, labels)

    def _bucket_deltas(
        self, name: str, labels: LabelFilter
    ) -> Tuple[List[int], Tuple[float, ...]]:
        family = self._family(name)
        if family.kind != "histogram":
            raise ConfigurationError(
                f"metric {name!r} is a {family.kind}, not a histogram"
            )
        counts = [0] * (len(family.buckets) + 1)
        for key, cell in family._children.items():
            if not _matches(family, key, labels):
                continue
            for i, count in enumerate(cell.counts):
                counts[i] += count
        base_family = self._base.registry.get(name)
        if base_family is not None:
            for key, cell in base_family._children.items():
                if not _matches(base_family, key, labels):
                    continue
                for i, count in enumerate(cell.counts):
                    counts[i] -= count
        return counts, family.buckets

    def quantile(self, name: str, q: float, labels: LabelFilter = ()) -> Optional[float]:
        """Interpolated quantile of the observations *inside* the window.

        Computed from the bucket-count deltas, so it reflects only what was
        observed between the two snapshots — a rolling p99, not the
        whole-run p99.  ``None`` when the window saw no observations.
        """
        counts, bounds = self._bucket_deltas(name, labels)
        return estimate_quantile(bounds, counts, q)

    def fraction_above(
        self, name: str, threshold: float, labels: LabelFilter = ()
    ) -> Optional[float]:
        """Estimated fraction of the window's observations above ``threshold``."""
        counts, bounds = self._bucket_deltas(name, labels)
        return estimate_fraction_above(bounds, counts, threshold)


class RollupRing:
    """A bounded ring of registry snapshots keyed by monotone progress.

    :meth:`push` snapshots the registry (a deep copy through the payload
    contract); :meth:`rollup` hands back the :class:`Rollup` between the
    newest snapshot and one ``over`` pushes earlier (clamped to the oldest
    retained).  Memory is bounded by ``capacity`` regardless of run length —
    the ring is what lets a million-tick run keep a live p99 without keeping
    a million snapshots.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 2:
            raise ConfigurationError(
                f"a rollup ring needs capacity >= 2 (a window takes two "
                f"snapshots), got {capacity}"
            )
        self.capacity = int(capacity)
        self._snapshots: Deque[_Snapshot] = deque(maxlen=self.capacity)

    def __len__(self) -> int:
        return len(self._snapshots)

    def push(self, key: float, registry: MetricsRegistry) -> None:
        """Snapshot ``registry`` at progress ``key`` (strictly increasing)."""
        key = float(key)
        if self._snapshots and key <= self._snapshots[-1].key:
            raise ConfigurationError(
                f"rollup keys must be strictly increasing; got {key} after "
                f"{self._snapshots[-1].key}"
            )
        self._snapshots.append(_Snapshot(key, registry))

    def rollup(self, over: int = 1) -> Optional[Rollup]:
        """The window ending at the newest snapshot, starting ``over`` back.

        ``over`` counts snapshot *intervals*; it clamps to the oldest
        retained snapshot, and ``None`` is returned until the ring holds at
        least two (a window needs both ends).
        """
        if over < 1:
            raise ConfigurationError(f"rollup window must be >= 1, got {over}")
        if len(self._snapshots) < 2:
            return None
        base_index = max(0, len(self._snapshots) - 1 - int(over))
        return Rollup(self._snapshots[base_index], self._snapshots[-1])
