"""K-layer HEC topology: devices at each layer connected by links.

Layer 0 is the IoT device where data originates; layer ``K-1`` is the cloud.
Link ``i`` connects layer ``i`` to layer ``i+1``.  The default
:func:`build_three_layer_topology` mirrors the paper's testbed (Raspberry Pi 3
→ Jetson TX2 → GPU Devbox with ~250 ms per-hop round trips).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.hec.device import DeviceProfile, GPU_DEVBOX, JETSON_TX2, RASPBERRY_PI_3
from repro.hec.network import NetworkLink, paper_link_edge_cloud, paper_link_iot_edge
from repro.utils.rng import RngLike


@dataclass
class HECTopology:
    """A linear hierarchy of devices connected by links.

    ``devices[i]`` sits at layer ``i``; ``links[i]`` connects layers ``i`` and
    ``i+1``, so ``len(links) == len(devices) - 1``.
    """

    devices: List[DeviceProfile]
    links: List[NetworkLink]

    def __post_init__(self) -> None:
        if len(self.devices) < 1:
            raise ConfigurationError("a topology needs at least one device")
        if len(self.links) != len(self.devices) - 1:
            raise ConfigurationError(
                f"a {len(self.devices)}-layer topology needs {len(self.devices) - 1} links, "
                f"got {len(self.links)}"
            )

    # -- structure ----------------------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of layers (K in the paper)."""
        return len(self.devices)

    def device_at(self, layer: int) -> DeviceProfile:
        """The device at ``layer`` (0 = IoT device)."""
        self._check_layer(layer)
        return self.devices[layer]

    def links_to(self, layer: int) -> List[NetworkLink]:
        """The links traversed by data travelling from layer 0 up to ``layer``."""
        self._check_layer(layer)
        return self.links[:layer]

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.n_layers:
            raise ConfigurationError(
                f"layer must lie in [0, {self.n_layers}), got {layer}"
            )

    # -- convenience ------------------------------------------------------------------

    def uplink_latency_ms(self, layer: int) -> float:
        """Sum of one-way propagation latencies from layer 0 up to ``layer``."""
        return float(sum(link.one_way_latency_ms for link in self.links_to(layer)))

    def round_trip_latency_ms(self, layer: int) -> float:
        """Propagation round-trip time from layer 0 to ``layer`` and back."""
        return 2.0 * self.uplink_latency_ms(layer)

    def reset_links(self) -> None:
        """Reset keep-alive state and injected faults on every link."""
        for link in self.links:
            link.reset()

    def warm_links(self) -> None:
        """Pre-establish the keep-alive connection on every link."""
        for link in self.links:
            link.warm()

    def describe(self) -> str:
        """A short multi-line description of the topology."""
        lines = [f"HECTopology with {self.n_layers} layers:"]
        for index, device in enumerate(self.devices):
            lines.append(f"  layer {index}: {device.name} ({device.tier})")
            if index < len(self.links):
                link = self.links[index]
                lines.append(
                    f"    └─ link {link.name}: {link.one_way_latency_ms:.1f} ms one-way, "
                    f"{link.bandwidth_mbps:.0f} Mbps"
                )
        return "\n".join(lines)


def build_three_layer_topology(
    devices: Optional[Sequence[DeviceProfile]] = None,
    links: Optional[Sequence[NetworkLink]] = None,
    rng: RngLike = None,
) -> HECTopology:
    """The paper's three-layer testbed topology (Pi 3 → Jetson TX2 → Devbox)."""
    resolved_devices = list(devices) if devices is not None else [
        RASPBERRY_PI_3,
        JETSON_TX2,
        GPU_DEVBOX,
    ]
    resolved_links = list(links) if links is not None else [
        paper_link_iot_edge(rng),
        paper_link_edge_cloud(rng),
    ]
    return HECTopology(devices=resolved_devices, links=resolved_links)
