"""Detector registry: one anomaly-detection model per HEC layer.

The paper associates its K models with the K layers of the HEC system (IoT
device, edge server, cloud).  :class:`DetectorRegistry` records that
association and is consumed by the deployment step of the HEC substrate and by
the selection schemes, which address models by layer index (0-based from the
bottom) or by tier name.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import ConfigurationError, DeploymentError
from repro.detectors.base import AnomalyDetector

#: Canonical tier names from the bottom of the hierarchy to the top.
DEFAULT_TIER_NAMES: Tuple[str, ...] = ("iot", "edge", "cloud")


class DetectorRegistry:
    """An ordered mapping from HEC layer index to an anomaly detector."""

    def __init__(self, tier_names: Optional[Tuple[str, ...]] = None) -> None:
        self.tier_names: Tuple[str, ...] = tuple(tier_names) if tier_names else DEFAULT_TIER_NAMES
        if len(set(self.tier_names)) != len(self.tier_names):
            raise ConfigurationError(f"tier names must be unique, got {self.tier_names}")
        self._detectors: Dict[int, AnomalyDetector] = {}

    # -- registration ---------------------------------------------------------

    def register(self, layer: int | str, detector: AnomalyDetector) -> "DetectorRegistry":
        """Associate ``detector`` with an HEC layer (index or tier name)."""
        index = self._resolve_layer(layer)
        self._detectors[index] = detector
        return self

    def _resolve_layer(self, layer: int | str) -> int:
        if isinstance(layer, str):
            try:
                return self.tier_names.index(layer.lower())
            except ValueError as exc:
                raise ConfigurationError(
                    f"unknown tier {layer!r}; expected one of {self.tier_names}"
                ) from exc
        index = int(layer)
        if not 0 <= index < len(self.tier_names):
            raise ConfigurationError(
                f"layer index must lie in [0, {len(self.tier_names)}), got {index}"
            )
        return index

    # -- access ------------------------------------------------------------------

    def layers(self) -> List[int]:
        """Sorted list of layer indices that have a registered detector."""
        return sorted(self._detectors)

    def detectors(self) -> List[AnomalyDetector]:
        """Registered detectors ordered from the bottom layer up."""
        return [self._detectors[index] for index in self.layers()]

    def __len__(self) -> int:
        return len(self._detectors)

    def __contains__(self, layer: object) -> bool:
        try:
            index = self._resolve_layer(layer)  # type: ignore[arg-type]
        except (ConfigurationError, TypeError, ValueError):
            return False
        return index in self._detectors

    def __iter__(self) -> Iterator[Tuple[int, AnomalyDetector]]:
        for index in self.layers():
            yield index, self._detectors[index]

    # -- validation ----------------------------------------------------------------

    def require_complete(self, n_layers: int) -> None:
        """Raise unless layers ``0..n_layers-1`` all have a registered detector."""
        missing = [index for index in range(n_layers) if index not in self._detectors]
        if missing:
            raise DeploymentError(
                f"detector registry is missing layers {missing} "
                f"(registered: {self.layers()})"
            )
