"""End-to-end delay accounting.

The end-to-end detection delay of a window handled at layer ``k`` is

``t_e2e = sum over hops 0..k-1 of (uplink transfer) + execution at layer k +
sum over hops of (downlink result transfer)``

where each transfer pays the link's one-way latency plus serialisation of the
payload (the window on the way up, a small verdict message on the way down).
Connection setup is paid only on the first request per link thanks to the
keep-alive sockets of the paper's implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.hec.network import NetworkLink, TransferSpec
from repro.hec.topology import HECTopology

#: Size of the verdict/result message sent back down the hierarchy.
RESULT_PAYLOAD_BYTES = 64.0
_RESULT_TRANSFER = TransferSpec(RESULT_PAYLOAD_BYTES, "down")


@dataclass
class DelayBreakdown:
    """Composition of one end-to-end detection delay (all values in milliseconds)."""

    layer: int
    uplink_ms: float = 0.0
    execution_ms: float = 0.0
    downlink_ms: float = 0.0
    hops: List[str] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        """Total end-to-end delay."""
        return self.uplink_ms + self.execution_ms + self.downlink_ms


def window_payload_bytes(window_shape: tuple, bytes_per_value: int = 4) -> float:
    """Approximate serialised size of a detection window (FP32 values by default)."""
    size = 1
    for dim in window_shape:
        size *= int(dim)
    return float(size * bytes_per_value)


def end_to_end_delay(
    topology: HECTopology,
    layer: int,
    execution_ms: float,
    payload_bytes: float,
    include_downlink: bool = True,
) -> DelayBreakdown:
    """Delay of one detection handled at ``layer`` for a window of ``payload_bytes``.

    ``include_downlink`` covers returning the verdict to the IoT device; the
    paper's end-to-end delay is measured at the device, so it is on by default.
    """
    if execution_ms < 0:
        raise ConfigurationError(f"execution_ms must be non-negative, got {execution_ms}")
    links = topology.links_to(layer)
    uplink_ms, downlink_ms = _transfers_ms(links, payload_bytes, include_downlink)
    hops = [f"{link.name}:up" for link in links]
    if include_downlink:
        hops += [f"{link.name}:down" for link in reversed(links)]
    return DelayBreakdown(layer, uplink_ms, float(execution_ms), downlink_ms, hops)


def request_delay_ms(
    links: Sequence[NetworkLink], execution_ms: float, payload_bytes: float
) -> float:
    """``end_to_end_delay(...).total_ms`` over ``links``, without the breakdown."""
    uplink_ms, downlink_ms = _transfers_ms(links, payload_bytes, True)
    return uplink_ms + float(execution_ms) + downlink_ms


def _transfers_ms(
    links: Sequence[NetworkLink], payload_bytes: float, include_downlink: bool
) -> Tuple[float, float]:
    """One request's summed uplink and downlink transfers, in transfer order."""
    upload = TransferSpec(payload_bytes, "up")
    uplink_ms = 0.0
    for link in links:
        uplink_ms += link.transfer_delay_ms(upload)
    downlink_ms = 0.0
    if include_downlink:
        for link in reversed(links):
            downlink_ms += link.transfer_delay_ms(_RESULT_TRANSFER)
    return uplink_ms, downlink_ms
