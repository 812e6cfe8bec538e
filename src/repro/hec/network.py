"""Network links between HEC layers.

The paper emulates WAN latency between its testbed machines with the Linux
``tc`` traffic-control tool and keeps TCP connections alive so connection
establishment is paid only once.  :class:`NetworkLink` models exactly those
knobs: a one-way propagation latency, a bandwidth for serialisation delay, an
optional jitter, and a one-time connection-setup cost amortised by the
keep-alive behaviour.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ConfigurationError, SchedulingError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_non_negative

#: Health states a link can be in (see :meth:`NetworkLink.set_status`).
LINK_STATUSES = ("up", "degraded", "down")


class NetworkLink:
    """A bidirectional link between two adjacent HEC layers."""

    def __init__(
        self,
        name: str,
        one_way_latency_ms: float,
        bandwidth_mbps: float = 1000.0,
        jitter_ms: float = 0.0,
        connection_setup_ms: float = 0.0,
        keep_alive: bool = True,
        rng: RngLike = None,
    ) -> None:
        self.name = name
        self.one_way_latency_ms = check_non_negative(one_way_latency_ms, "one_way_latency_ms")
        if bandwidth_mbps <= 0:
            raise ConfigurationError(f"bandwidth_mbps must be positive, got {bandwidth_mbps}")
        self.bandwidth_mbps = float(bandwidth_mbps)
        self.jitter_ms = check_non_negative(jitter_ms, "jitter_ms")
        self.connection_setup_ms = check_non_negative(connection_setup_ms, "connection_setup_ms")
        self.keep_alive = bool(keep_alive)
        self._rng = ensure_rng(rng)
        self._connection_established = False
        #: Health state driven by fault injection: "up" (healthy), "degraded"
        #: (latency multiplied by :attr:`degraded_factor`) or "down"
        #: (transfers raise; the system fails over to a reachable tier).
        self.status = "up"
        self.degraded_factor = 1.0

    # -- health ------------------------------------------------------------------

    def set_status(self, status: str, factor: Optional[float] = None) -> None:
        """Set the link's health state; ``factor`` is the latency multiplier
        applied while ``status == "degraded"`` (ignored otherwise)."""
        if status not in LINK_STATUSES:
            raise ConfigurationError(
                f"link status must be one of {LINK_STATUSES}, got {status!r}"
            )
        self.status = status
        if status == "degraded":
            if factor is not None:
                if factor < 1.0:
                    raise ConfigurationError(
                        f"degraded factor must be >= 1, got {factor}"
                    )
                self.degraded_factor = float(factor)
        else:
            self.degraded_factor = 1.0

    @property
    def is_down(self) -> bool:
        """Whether the link is currently unreachable."""
        return self.status == "down"

    # -- delay model ------------------------------------------------------------

    def serialization_delay_ms(self, payload_bytes: float) -> float:
        """Time to push ``payload_bytes`` onto the wire at the link bandwidth."""
        check_non_negative(payload_bytes, "payload_bytes")
        bits = payload_bytes * 8.0
        return bits / (self.bandwidth_mbps * 1e6) * 1e3

    def transfer_delay_ms(self, payload_bytes: float) -> float:
        """One-way delay of ``payload_bytes``: setup (first use only) + latency +
        jitter + serialisation.

        A degraded link multiplies its propagation latency by
        :attr:`degraded_factor` (the factor is exactly 1.0 when healthy, so
        healthy delays are bit-identical to a link without the health model).
        Transferring over a down link is a scheduling bug — the system must
        fail over before dispatching — and raises.
        """
        if self.is_down:
            raise SchedulingError(
                f"link {self.name!r} is down; detection must fail over to a "
                "reachable tier instead of transferring"
            )
        delay = (
            self.one_way_latency_ms * self.degraded_factor
            + self.serialization_delay_ms(payload_bytes)
        )
        if self.jitter_ms > 0:
            delay += float(abs(self._rng.normal(0.0, self.jitter_ms)))
        if not self._connection_established or not self.keep_alive:
            delay += self.connection_setup_ms
        self._connection_established = True
        return float(delay)

    def warm(self) -> None:
        """Mark the keep-alive connection as already established.

        The paper's testbed keeps TCP connections alive, so steady-state
        traffic never pays ``connection_setup_ms``.  Long-running consumers
        (the fleet streaming engine) warm their links up front, which also
        keeps per-request delays independent of how a fleet is partitioned
        across shard replicas.
        """
        self._connection_established = True

    # -- bookkeeping ----------------------------------------------------------------

    def reset(self) -> None:
        """Forget connection state and injected faults."""
        self._connection_established = False
        self.status = "up"
        self.degraded_factor = 1.0

    def snapshot(self) -> dict:
        """Picklable mid-run link state for the fleet checkpoint layer."""
        return {
            "connection_established": self._connection_established,
            "status": self.status,
            "degraded_factor": self.degraded_factor,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, snapshot: dict) -> None:
        """Restore the state captured by :meth:`snapshot`."""
        self._connection_established = bool(snapshot["connection_established"])
        self.status = str(snapshot["status"])
        self.degraded_factor = float(snapshot["degraded_factor"])
        self._rng.bit_generator.state = snapshot["rng_state"]

    def get_config(self) -> dict:
        """JSON-serialisable link description."""
        return {
            "name": self.name,
            "one_way_latency_ms": self.one_way_latency_ms,
            "bandwidth_mbps": self.bandwidth_mbps,
            "jitter_ms": self.jitter_ms,
            "connection_setup_ms": self.connection_setup_ms,
            "keep_alive": self.keep_alive,
        }


def paper_link_iot_edge(rng: RngLike = None) -> NetworkLink:
    """The IoT-device ↔ edge-server link used in the paper's testbed.

    The end-to-end numbers in Table II imply a ~250 ms round trip between the
    IoT device and the edge server (univariate: 257.4 ms total minus 7.4 ms
    execution), i.e. a 125 ms one-way latency as configured here.
    """
    return NetworkLink(
        name="iot-edge",
        one_way_latency_ms=125.0,
        bandwidth_mbps=100.0,
        jitter_ms=0.0,
        connection_setup_ms=3.0,
        keep_alive=True,
        rng=rng,
    )


def paper_link_edge_cloud(rng: RngLike = None) -> NetworkLink:
    """The edge-server ↔ cloud link used in the paper's testbed.

    Table II implies an additional ~250 ms round trip from edge to cloud
    (univariate: 504.5 ms total minus 4.5 ms execution minus the 250 ms
    IoT–edge round trip).
    """
    return NetworkLink(
        name="edge-cloud",
        one_way_latency_ms=125.0,
        bandwidth_mbps=1000.0,
        jitter_ms=0.0,
        connection_setup_ms=3.0,
        keep_alive=True,
        rng=rng,
    )
