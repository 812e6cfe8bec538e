"""Deterministic fault injection for streaming fleet runs.

A :class:`FaultSpec` is pure data hanging off
:class:`~repro.experiments.spec.ExperimentSpec` as the optional ``faults``
node: a tuple of :class:`FaultEvent` entries plus the failover retry policy
the :class:`~repro.hec.simulation.HECSystem` applies when a link is down.
:class:`FaultSchedule` turns the spec into per-tick actions for the streaming
engine.  Everything is a pure function of the tick number — no RNG, no
mutable schedule state — so a resumed run reconstructs the exact same fault
trajectory from the spec alone and checkpoints never need to serialise fault
state.

Four fault kinds are modelled:

* ``link-degrade`` — a :class:`~repro.hec.network.NetworkLink`'s one-way
  latency is multiplied by ``factor`` for ``[at_tick, until_tick)``;
* ``link-down`` — the link is unreachable for ``[at_tick, until_tick)``
  (``until_tick=None`` = a permanent partition); detection falls back to the
  best reachable tier with retry delay accounting (see
  :meth:`~repro.hec.simulation.HECSystem.configure_failover`);
* ``shard-crash`` — the shard worker raises :class:`WorkerCrash` at
  ``at_tick``; the sharded engine recovers by re-executing only that shard
  (from its last checkpoint when one exists);
* ``process-kill`` — the engine SIGKILLs its own process at ``at_tick``,
  modelling a hard mid-run crash for the checkpoint/resume tests.

``shard-crash`` and ``process-kill`` are one-shot: a *resumed* run disarms
them (the modelled crash already happened), otherwise resuming at or before
``at_tick`` would crash again forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.utils.serialization import JsonRecord
from repro.utils.validation import check_non_negative

#: Fault kinds understood by :class:`FaultSchedule`.
FAULT_KINDS = ("link-degrade", "link-down", "shard-crash", "process-kill")


class WorkerCrash(Exception):
    """An injected shard-worker crash.

    Deliberately **not** a :class:`~repro.exceptions.ReproError`: the sharded
    engine's pool-failure ladder re-raises ``ReproError`` and falls back to
    serial on ``OSError``/``ValueError``; an injected crash must bypass both
    and reach the shard-recovery path instead.
    """


@dataclass(frozen=True)
class FaultEvent(JsonRecord):
    """One scheduled fault.

    ``until_tick`` is exclusive and only read by the link kinds; ``None``
    means the fault is permanent.  ``link`` indexes the topology's uplink
    chain (0 = device->first tier), ``factor`` is the latency multiplier of
    ``link-degrade``, and ``shard`` addresses ``shard-crash`` events.
    """

    kind: str
    at_tick: int
    until_tick: Optional[int] = None
    link: int = 0
    factor: float = 4.0
    shard: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.at_tick < 0:
            raise ConfigurationError(f"at_tick must be non-negative, got {self.at_tick}")
        if self.until_tick is not None and self.until_tick <= self.at_tick:
            raise ConfigurationError(
                f"until_tick must exceed at_tick, got "
                f"[{self.at_tick}, {self.until_tick})"
            )
        if self.link < 0:
            raise ConfigurationError(f"link must be non-negative, got {self.link}")
        if self.factor < 1.0:
            raise ConfigurationError(
                f"factor must be >= 1 (a latency multiplier), got {self.factor}"
            )
        if self.shard < 0:
            raise ConfigurationError(f"shard must be non-negative, got {self.shard}")

    def active(self, tick: int) -> bool:
        """Whether a link fault covers ``tick`` (``until_tick`` exclusive)."""
        return tick >= self.at_tick and (self.until_tick is None or tick < self.until_tick)


@dataclass(frozen=True)
class FaultSpec(JsonRecord):
    """The fault-injection plan of an experiment.

    ``failover_retries``/``retry_timeout_ms`` parameterise the delay penalty
    a request pays when the system redirects it off an unreachable tier:
    each redirected request is charged ``failover_retries * retry_timeout_ms``
    on top of the delay of the tier that actually serves it.
    """

    events: Tuple[FaultEvent, ...] = ()
    failover_retries: int = 1
    retry_timeout_ms: float = 200.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"events must be FaultEvent instances, got {type(event).__name__}"
                )
        if self.failover_retries < 1:
            raise ConfigurationError(
                f"failover_retries must be >= 1, got {self.failover_retries}"
            )
        check_non_negative(self.retry_timeout_ms, "retry_timeout_ms")


class FaultSchedule:
    """Per-tick fault actions derived from a :class:`FaultSpec`.

    Stateless by design: :meth:`apply_links` resets every link to healthy and
    re-applies the faults active at ``tick``, so calling it for any tick in
    any order produces the correct link state for that tick — the property
    that lets a resumed run rebuild the fault trajectory with no saved state.
    """

    def __init__(self, spec: FaultSpec) -> None:
        if not isinstance(spec, FaultSpec):
            raise ConfigurationError(
                f"FaultSchedule needs a FaultSpec, got {type(spec).__name__}"
            )
        self.spec = spec
        self._link_events = tuple(
            e for e in spec.events if e.kind in ("link-degrade", "link-down")
        )
        self._crash_events = tuple(e for e in spec.events if e.kind == "shard-crash")
        self._kill_events = tuple(e for e in spec.events if e.kind == "process-kill")

    @property
    def has_link_faults(self) -> bool:
        return bool(self._link_events)

    @property
    def link_events(self) -> Tuple[FaultEvent, ...]:
        """The link-degrade/link-down events (telemetry reads these)."""
        return self._link_events

    def apply_links(self, system, tick: int) -> None:
        """Set every topology link to its scheduled state for ``tick``."""
        links = system.topology.links
        for link in links:
            link.set_status("up")
        for event in self._link_events:
            if not event.active(tick):
                continue
            if event.link >= len(links):
                raise ConfigurationError(
                    f"fault event addresses link {event.link} but the topology "
                    f"has only {len(links)} link(s)"
                )
            if event.kind == "link-down":
                links[event.link].set_status("down")
            else:
                links[event.link].set_status("degraded", factor=event.factor)

    def down_links(self, tick: int) -> Tuple[int, ...]:
        """Indices of links scheduled hard-down at ``tick`` (pure, sorted).

        The serving front door uses this to decide — without touching the
        shared :class:`~repro.hec.simulation.HECSystem` from the event loop —
        whether a batch's target tier sits behind a partition and should
        retry with backoff before failing over.
        """
        return tuple(
            sorted(
                {
                    e.link
                    for e in self._link_events
                    if e.kind == "link-down" and e.active(tick)
                }
            )
        )

    def kills_process(self, tick: int) -> bool:
        """Whether a ``process-kill`` event fires exactly at ``tick``."""
        return any(e.at_tick == tick for e in self._kill_events)

    def crashes_shard(self, shard_index: int, tick: int) -> bool:
        """Whether a ``shard-crash`` event fires for ``shard_index`` at ``tick``."""
        return any(
            e.at_tick == tick and e.shard == shard_index for e in self._crash_events
        )

    def crashed_shards(self) -> Tuple[int, ...]:
        """The shard indices with a scheduled crash (any tick), sorted."""
        return tuple(sorted({e.shard for e in self._crash_events}))
