"""Common interface of model-selection schemes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.hec.simulation import DetectionRecord, HECSystem


@dataclass
class SchemeOutcome:
    """The outcome of a scheme handling one window.

    ``records`` holds every detection the scheme triggered for the window (the
    Successive scheme can trigger several); ``final`` is the record whose
    prediction the scheme reports, and ``delay_ms`` the total end-to-end delay
    experienced by the window (including escalations).
    """

    window_index: int
    final: DetectionRecord
    records: List[DetectionRecord] = field(default_factory=list)

    @property
    def prediction(self) -> int:
        """The scheme's binary prediction for the window."""
        return self.final.prediction

    @property
    def layer(self) -> int:
        """The layer that produced the final prediction."""
        return self.final.layer

    @property
    def delay_ms(self) -> float:
        """Total end-to-end delay of handling the window."""
        return self.final.delay_ms

    @property
    def ground_truth(self) -> Optional[int]:
        """Ground-truth label of the window, when known."""
        return self.final.ground_truth


class SelectionScheme:
    """Base class: decide which layer(s) handle each window."""

    name: str = "scheme"

    def __init__(self, system: HECSystem) -> None:
        self.system = system

    def run_batch(
        self, windows: np.ndarray, ground_truth: Optional[np.ndarray] = None
    ) -> List[SchemeOutcome]:
        """Process a batch of windows; returns one outcome per window, in order.

        The one driver every scheme implements: whole batches go through
        :meth:`~repro.hec.simulation.HECSystem.detect_batch`, one detector
        call per layer involved.
        """
        raise NotImplementedError

    def handle_window(
        self,
        window: np.ndarray,
        window_index: int,
        ground_truth: Optional[int] = None,
    ) -> SchemeOutcome:
        """Process one window: :meth:`run_batch` over a batch of one."""
        truth = None if ground_truth is None else np.asarray([ground_truth])
        (outcome,) = self.run_batch(np.asarray(window, dtype=float)[None, ...], truth)
        outcome.window_index = window_index
        return outcome

    def _must_step(self, n: int) -> bool:
        """Whether ``n`` windows must go through the driver one at a time.

        Drivers that regroup requests by layer would reorder the per-transfer
        jitter draws, so on jittery links they feed themselves one window at
        a time, in arrival order (:meth:`_step`).
        """
        return n > 1 and any(link.jitter_ms > 0.0 for link in self.system.topology.links)

    def _step(
        self, windows: np.ndarray, ground_truth: Optional[np.ndarray]
    ) -> List[SchemeOutcome]:
        return [
            self.handle_window(
                windows[index], index, None if ground_truth is None else ground_truth[index]
            )
            for index in range(windows.shape[0])
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
