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

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.hec.simulation import HECSystem
from repro.schemes.base import SchemeRun, SelectionScheme


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

    def run_batch(self, windows: np.ndarray) -> SchemeRun:
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
        if self._must_step(n):
            return self._step(windows)
        predictions = np.empty(n, dtype=np.int64)
        layers = np.empty(n, dtype=np.int64)
        delays = np.empty(n)
        if n == 0:
            return SchemeRun.one_attempt(predictions, layers, delays, np.empty(0, dtype=bool))
        # The escalation log, one entry per detection, in layer order.
        attempt_windows, attempt_layers, attempt_confident = [], [], []

        top = self.system.n_layers - 1
        active = np.arange(n)
        spent_ms: Optional[np.ndarray] = None
        for layer in range(self.start_layer, self.system.n_layers):
            result = self.system.detect_batch(
                layer, windows[active], with_confidence=True, escalated_ms=spent_ms
            )
            attempt_windows.append(active)
            attempt_layers.append(np.full(active.size, result.layer, dtype=np.int64))
            attempt_confident.append(result.confidents)
            escalating = ~result.confidents & (layer < top)
            final = ~escalating
            predictions[active[final]] = result.predictions[final]
            layers[active[final]] = result.layer
            delays[active[final]] = result.delays_ms[final]
            if not escalating.any():
                break
            active = active[escalating]
            # The next attempt inherits everything spent so far.
            spent_ms = result.delays_ms[escalating]

        attempt_windows = np.concatenate(attempt_windows)
        window_major = np.argsort(attempt_windows, kind="stable")
        return SchemeRun(
            predictions=predictions,
            layers=layers,
            delays_ms=delays,
            attempts=np.bincount(attempt_windows, minlength=n),
            attempt_layers=np.concatenate(attempt_layers)[window_major],
            attempt_confident=np.concatenate(attempt_confident)[window_major],
        )
