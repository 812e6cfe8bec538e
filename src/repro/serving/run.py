"""One-call orchestration of a serving run: server + load generator + report.

:func:`serve_workload` wires an :class:`~repro.serving.server.IngestServer`
to an :class:`~repro.serving.loadgen.OpenLoopLoadGenerator` inside a fresh
event loop, optionally lands one hot swap mid-run through the drain-and-swap
gate, and assembles the :class:`~repro.serving.report.ServingReport`.  It is
what the runner's ``serve`` stage and the ``serve-paced`` / ``serve-unpaced``
benchmark workloads call.
"""

from __future__ import annotations

import asyncio
import copy
from typing import Callable, List, Optional, Sequence, Tuple

from repro.fleet.devices import DeviceFleet
from repro.serving.loadgen import OpenLoopLoadGenerator
from repro.serving.report import ServingReport, report_from_server
from repro.serving.server import IngestServer, ServeResult
from repro.serving.spec import ServingSpec


def blue_green_swap(system, layer: int = 0) -> Callable[[], int]:
    """A swap callable rebinding ``layer``'s detector to a fresh deep copy.

    The registry-backed swap of the adaptation loop
    (:class:`~repro.adapt.controller.AdaptationController`) carries lineage
    and quantisation; a blue/green redeploy of the *same* weights only needs
    the atomic rebind plus a version bump, which is what ``repro serve
    --hot-swap`` exercises.  Returns the new state version.
    """

    def _swap() -> int:
        deployment = system.deployment_at(layer)
        deployment.detector = copy.deepcopy(deployment.detector)
        return system.bump_state_version()

    return _swap


async def _swap_midstream(
    server: IngestServer,
    generator: OpenLoopLoadGenerator,
    swap: Callable[[], object],
    at_fraction: float,
) -> None:
    """Wait until a fraction of the stream has been offered, then swap."""
    target = max(1, int(generator.n_requests * at_fraction))
    while server.n_submitted < target:
        await asyncio.sleep(0.002)
    await server.drain_and_swap(swap)


def serve_workload(
    *,
    system,
    policy,
    context_extractor,
    serving: ServingSpec,
    fleet: DeviceFleet,
    master_seed: int = 0,
    name: str = "serving",
    tier_names: Optional[Sequence[str]] = None,
    swap: Optional[Callable[[], object]] = None,
    swap_at_fraction: float = 0.5,
    telemetry=None,
    faults=None,
) -> Tuple[ServingReport, List[ServeResult]]:
    """Serve the fleet's arrival stream through the front door, end to end.

    Returns the report plus the per-request results in submission order.
    When ``swap`` is given, it lands once through
    :meth:`~repro.serving.server.IngestServer.drain_and_swap` after
    ``swap_at_fraction`` of the stream has been offered.  ``faults`` (a
    :class:`~repro.fleet.faults.FaultSpec`) injects its link windows into
    the dispatch path, keyed by each request's origin fleet tick.
    """

    async def _main():
        server = IngestServer(
            system,
            policy,
            context_extractor,
            serving,
            tier_names=tier_names,
            telemetry=telemetry,
            faults=faults,
        )
        generator = OpenLoopLoadGenerator(fleet, serving, master_seed=master_seed)
        await server.start()
        loop = asyncio.get_running_loop()
        start = loop.time()
        swapper = None
        if swap is not None:
            swapper = loop.create_task(
                _swap_midstream(server, generator, swap, swap_at_fraction)
            )
        try:
            results = await generator.run(server)
            if swapper is not None:
                await swapper
        finally:
            if swapper is not None and not swapper.done():
                swapper.cancel()
            await server.stop()
        duration = loop.time() - start
        return report_from_server(server, name=name, duration_seconds=duration), results

    return asyncio.run(_main())
