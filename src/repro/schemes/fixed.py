"""Fixed-layer schemes: always detect at one chosen HEC layer.

``FixedLayerScheme(system, layer=0)`` is the paper's "IoT Device" scheme,
``layer=1`` is "Edge" and ``layer=K-1`` is "Cloud".
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hec.simulation import HECSystem
from repro.schemes.base import SchemeOutcome, SelectionScheme

#: Human-readable names matching the paper's Table II rows (three-layer case);
#: the top layer of a deeper hierarchy is always "Cloud" and unnamed middle
#: layers fall back to "Layer-i".
_FIXED_SCHEME_NAMES = {0: "IoT Device", 1: "Edge"}


class FixedLayerScheme(SelectionScheme):
    """Always offload every window to the same layer.

    ``name`` overrides the default label — experiment runners pass tier-derived
    names for topologies deeper than the paper's three layers.
    """

    def __init__(self, system: HECSystem, layer: int, name: Optional[str] = None) -> None:
        super().__init__(system)
        if not 0 <= layer < system.n_layers:
            raise ConfigurationError(
                f"layer must lie in [0, {system.n_layers}), got {layer}"
            )
        self.layer = int(layer)
        if name is not None:
            self.name = name
        elif self.layer == system.n_layers - 1:
            self.name = "Cloud"
        else:
            self.name = _FIXED_SCHEME_NAMES.get(self.layer, f"Layer-{self.layer}")

    def run_batch(
        self, windows: np.ndarray, ground_truth: Optional[np.ndarray] = None
    ) -> List[SchemeOutcome]:
        """All windows go to the configured layer in one batched detector call."""
        windows = np.asarray(windows, dtype=float)
        records = self.system.detect_batch(self.layer, windows, ground_truths=ground_truth)
        return [
            SchemeOutcome(window_index=index, final=record, records=[record])
            for index, record in enumerate(records)
        ]
