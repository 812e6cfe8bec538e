"""The declarative telemetry specification.

An :class:`ObsSpec` hangs off :class:`~repro.experiments.spec.ExperimentSpec`
as the optional ``obs`` node, so telemetry is configured the same way as
every other subsystem: dotted ``--set obs.*`` overrides, JSON round-trips,
and the ``--telemetry <dir>`` CLI flag, which is sugar for ``--set
obs.dir=<dir>``.  A spec with ``dir=None`` keeps the run telemetry-free —
the engines and servers are handed no telemetry object at all, so the hot
paths pay nothing.

Like the other spec modules this one imports nothing from
:mod:`repro.experiments`, so the spec tree can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.serialization import JsonRecord


@dataclass(frozen=True)
class ObsSpec(JsonRecord):
    """Telemetry configuration for one run."""

    #: Output directory for ``trace.jsonl`` / ``metrics.json`` /
    #: ``metrics.prom``; ``None`` disables telemetry entirely.
    dir: Optional[str] = None
    #: Record spans (per-request, per-tick, per-retrain).  Metrics counters
    #: are always kept — they are what the Prometheus dump exposes.
    trace: bool = True
    #: Record structured events (overload sheds, fault activations, drift,
    #: checkpoint saves).
    events: bool = True
    #: Flush the trace sink after every record so a live reader
    #: (``repro obs top --follow``) sees spans mid-run.  Off by default —
    #: line-buffered writes cost syscalls the telemetry overhead budget
    #: does not need to pay when nobody is watching.
    flush: bool = False

    @property
    def enabled(self) -> bool:
        """Whether a run with this spec writes telemetry anywhere."""
        return self.dir is not None
