"""Online serving front door for the trained HEC system.

The packages below turn the closed-loop simulation into request/response
serving under real queueing:

* :mod:`repro.serving.spec` — the frozen, ``--set serve.*``-able
  :class:`~repro.serving.spec.ServingSpec` (micro-batcher, admission
  control, SLO, offered load);
* :mod:`repro.serving.server` — the asyncio
  :class:`~repro.serving.server.IngestServer`: micro-batching, per-tier
  batches into ``detect_batch``, bounded-queue load shedding, per-tier
  concurrency backpressure and the drain-and-swap deployment gate;
* :mod:`repro.serving.loadgen` — the open-loop
  :class:`~repro.serving.loadgen.OpenLoopLoadGenerator` backed by
  :class:`~repro.fleet.devices.DeviceFleet`;
* :mod:`repro.serving.report` — the serialisable
  :class:`~repro.serving.report.ServingReport`;
* :mod:`repro.serving.run` — :func:`~repro.serving.run.serve_workload`, the
  one-call orchestration used by the runner's ``serve`` stage, the
  ``repro serve`` CLI and the ``serve-paced`` / ``serve-unpaced`` benchmark
  workloads.
"""

from repro.serving.loadgen import OpenLoopLoadGenerator
from repro.serving.report import ServingReport, ServingTierUsage, report_from_server
from repro.serving.run import blue_green_swap, serve_workload
from repro.serving.server import IngestServer, ServeResult
from repro.serving.spec import SHED_POLICIES, ServingSpec

__all__ = [
    "SHED_POLICIES",
    "ServingSpec",
    "IngestServer",
    "ServeResult",
    "OpenLoopLoadGenerator",
    "ServingReport",
    "ServingTierUsage",
    "report_from_server",
    "serve_workload",
    "blue_green_swap",
]
