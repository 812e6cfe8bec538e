"""Successive offloading scheme.

The window is first handled at the IoT device; whenever the local detection is
*not* confident (per the paper's confidence rules), the window is offloaded to
the next layer up, and so on until a confident output is obtained or the cloud
is reached.  The delay of the final verdict accumulates the time already spent
at the lower layers, which is why the Successive scheme sits between the IoT
and Cloud schemes on delay but cannot beat the Adaptive scheme that goes to
the right layer directly.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hec.simulation import DetectionRecord, HECSystem
from repro.schemes.base import SchemeOutcome, SelectionScheme


class SuccessiveScheme(SelectionScheme):
    """Escalate layer by layer until the detection is confident (or the top is reached)."""

    name = "Successive"

    def __init__(self, system: HECSystem, start_layer: int = 0) -> None:
        super().__init__(system)
        if not 0 <= start_layer < system.n_layers:
            raise ConfigurationError(
                f"start_layer must lie in [0, {system.n_layers}), got {start_layer}"
            )
        self.start_layer = int(start_layer)

    def run_batch(
        self, windows: np.ndarray, ground_truth: Optional[np.ndarray] = None
    ) -> List[SchemeOutcome]:
        """Escalation loop over layers with batched per-layer detector calls.

        All windows are detected at the start layer in one batch; the
        unconfident ones are escalated together to the next layer — each
        carrying the delay it has spent so far — and so on.  On jittery links
        the windows go through one at a time instead, each finishing its
        escalation before the next starts, so the per-transfer jitter draws
        keep arrival order.
        """
        windows = np.asarray(windows, dtype=float)
        n = windows.shape[0]
        if n == 0:
            return []
        if self._must_step(n):
            return self._step(windows, ground_truth)
        finals: List[Optional[DetectionRecord]] = [None] * n
        chains: List[List[DetectionRecord]] = [[] for _ in range(n)]

        top = self.system.n_layers - 1
        active = np.arange(n)
        spent_ms: Optional[np.ndarray] = None
        for layer in range(self.start_layer, self.system.n_layers):
            truths = ground_truth[active] if ground_truth is not None else None
            records = self.system.detect_batch(
                layer, windows[active], ground_truths=truths, escalated_ms=spent_ms
            )
            escalating = []
            for index, record in zip(active, records):
                chains[index].append(record)
                if record.confident or layer == top:
                    finals[index] = record
                else:
                    escalating.append(index)
            if not escalating:
                break
            active = np.asarray(escalating)
            # The next attempt inherits everything spent so far.
            spent_ms = np.asarray([chains[index][-1].delay_ms for index in active])

        return [
            SchemeOutcome(window_index=index, final=finals[index], records=chains[index])
            for index in range(n)
        ]
