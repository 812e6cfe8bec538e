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

from typing import Sequence

from repro.hec.network import NetworkLink

#: Size of the verdict/result message sent back down the hierarchy.
RESULT_PAYLOAD_BYTES = 64.0


def window_payload_bytes(window_shape: tuple, bytes_per_value: int = 4) -> float:
    """Approximate serialised size of a detection window (FP32 values by default)."""
    size = 1
    for dim in window_shape:
        size *= int(dim)
    return float(size * bytes_per_value)


def request_delay_ms(
    links: Sequence[NetworkLink], execution_ms: float, payload_bytes: float
) -> float:
    """One request's end-to-end delay over ``links`` (the hops up to its layer).

    The window travels up every link in order, the layer executes, and the
    verdict travels back down every link in reverse order; each transfer
    advances its link's keep-alive state.
    """
    uplink_ms = 0.0
    for link in links:
        uplink_ms += link.transfer_delay_ms(payload_bytes)
    downlink_ms = 0.0
    for link in reversed(links):
        downlink_ms += link.transfer_delay_ms(RESULT_PAYLOAD_BYTES)
    return uplink_ms + float(execution_ms) + downlink_ms
