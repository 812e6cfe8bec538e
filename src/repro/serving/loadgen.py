"""Open-loop load generation for the serving front door.

:class:`OpenLoopLoadGenerator` turns a :class:`~repro.fleet.devices.DeviceFleet`
into request traffic: it materialises the fleet's deterministic arrival
stream up front (windows, labels, device ids), then replays it against an
:class:`~repro.serving.server.IngestServer` with exponential inter-arrival
times at ``serve.offered_rps``.

The generator is *open loop*: arrivals follow their schedule regardless of
how fast responses come back (each submission is a fire-and-forget task), so
the arrival process is decoupled from the service rate and queueing under
overload is real.  Each submission passes its *scheduled* send time as the
arrival timestamp — if the generator itself lags, that lag lands in the
measured latency instead of silently stretching the schedule (no coordinated
omission).
"""

from __future__ import annotations

import asyncio
from typing import List

import numpy as np

from repro.exceptions import ConfigurationError
from repro.fleet.devices import DeviceFleet
from repro.serving.server import IngestServer, ServeResult
from repro.serving.spec import ServingSpec

#: SeedSequence entropy tag for the arrival-timing draws.
_ARRIVAL_TAG = 0x10AD


class OpenLoopLoadGenerator:
    """Replay a device fleet's arrival stream as open-loop request traffic."""

    def __init__(
        self,
        fleet: DeviceFleet,
        serving: ServingSpec,
        master_seed: int = 0,
    ) -> None:
        self.serving = serving
        # The request stream is materialised once, up front, stopping at the
        # tick that fills ``max_requests``.
        windows, labels, device_ids, ticks = [], [], [], []
        collected = 0
        for tick in range(fleet.spec.ticks):
            if collected >= serving.max_requests:
                break
            batch = fleet.arrivals_columnar(tick)
            take = min(batch.windows.shape[0], serving.max_requests - collected)
            if take:
                windows.append(batch.windows[:take])
                labels.append(batch.labels[:take])
                device_ids.append(batch.device_ids[:take])
                ticks.append(np.full(take, tick, dtype=np.int64))
                collected += take
        if not collected:
            raise ConfigurationError(
                "the fleet produced no arrivals to serve; raise fleet.ticks, "
                "fleet.n_devices or fleet.arrival_rate"
            )
        self.windows = np.concatenate(windows, axis=0)
        self.labels = np.concatenate(labels, axis=0)
        self.device_ids = np.concatenate(device_ids, axis=0)
        #: Origin fleet tick per request (drives serving-path fault windows).
        self.ticks = np.concatenate(ticks, axis=0)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [int(e) & 0xFFFFFFFF for e in (master_seed, serving.seed, _ARRIVAL_TAG)]
            )
        )
        # Scheduled offsets from the run start: exponential inter-arrivals at
        # the offered rate (a Poisson arrival process).  With a fleet load
        # curve the *same* time-varying multiplier that drove the device
        # Poisson rates modulates the offered rate per request, so the flash
        # crowd hits the front door in the same tick windows it hit the fleet.
        if fleet.spec.load_curve is None:
            gaps = rng.exponential(1.0 / serving.offered_rps, size=self.n_requests)
        else:
            multipliers = np.array(
                [fleet.spec.rate_multiplier(t) for t in range(fleet.spec.ticks)]
            )
            rates = serving.offered_rps * multipliers[self.ticks]
            gaps = rng.exponential(1.0, size=self.n_requests) / rates
        self.offsets = np.cumsum(gaps)

    @property
    def n_requests(self) -> int:
        """How many requests the generator will offer."""
        return int(self.windows.shape[0])

    async def run(self, server: IngestServer) -> List[ServeResult]:
        """Offer the whole stream; returns results in submission order.

        Resolves once every submission has a result (served, rejected or
        shed) — the returned list is conservation-complete by construction.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        tasks = []
        for i in range(self.n_requests):
            target = start + float(self.offsets[i])
            delay = target - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(
                asyncio.create_task(
                    server.submit(
                        int(self.device_ids[i]),
                        self.windows[i],
                        label=int(self.labels[i]),
                        arrival_time=target,
                        tick=int(self.ticks[i]),
                    )
                )
            )
        return list(await asyncio.gather(*tasks))
