"""Common interface of model-selection schemes."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.hec.simulation import HECSystem


@dataclass(frozen=True)
class SchemeRun:
    """What a scheme did with a batch of ``n`` windows, as aligned arrays.

    ``predictions``, ``layers`` and ``delays_ms`` are the scheme's verdict per
    window: the reported prediction, the layer that produced it and the total
    end-to-end delay (escalations included).  The escalation log records every
    detection the scheme triggered: ``attempts[i]`` detections for window
    ``i``, whose layers and confidence-rule outcomes are listed window-major
    in ``attempt_layers`` / ``attempt_confident`` (the last attempt of each
    window is the one that produced its verdict).
    """

    #: ``(n,)`` int64 binary predictions.
    predictions: np.ndarray
    #: ``(n,)`` int64 layer that produced each prediction.
    layers: np.ndarray
    #: ``(n,)`` float64 end-to-end delays.
    delays_ms: np.ndarray
    #: ``(n,)`` int64 number of detections per window.
    attempts: np.ndarray
    #: ``(attempts.sum(),)`` int64 layer of every detection, window-major.
    attempt_layers: np.ndarray
    #: ``(attempts.sum(),)`` bool confidence of every detection, window-major.
    attempt_confident: np.ndarray

    @property
    def n(self) -> int:
        """Number of windows in the run."""
        return int(self.predictions.shape[0])

    @classmethod
    def one_attempt(
        cls,
        predictions: np.ndarray,
        layers: np.ndarray,
        delays_ms: np.ndarray,
        confident: np.ndarray,
    ) -> "SchemeRun":
        """A run in which every window was detected exactly once."""
        return cls(
            predictions=predictions,
            layers=layers,
            delays_ms=delays_ms,
            attempts=np.ones(predictions.shape[0], dtype=np.int64),
            attempt_layers=layers,
            attempt_confident=confident,
        )

    @classmethod
    def concatenate(cls, runs: Sequence["SchemeRun"]) -> "SchemeRun":
        """The runs of consecutive batches as one run, in order."""
        return cls(
            **{
                field.name: np.concatenate([getattr(run, field.name) for run in runs])
                for field in fields(cls)
            }
        )


class SelectionScheme:
    """Base class: decide which layer(s) handle each window."""

    name: str = "scheme"

    def __init__(self, system: HECSystem) -> None:
        self.system = system

    def run_batch(self, windows: np.ndarray) -> SchemeRun:
        """Process a batch of windows in order; the one driver every scheme
        implements.

        Whole batches go through
        :meth:`~repro.hec.simulation.HECSystem.detect_batch`, one detector call
        per layer involved, always with the confidence-rule outcomes.
        """
        raise NotImplementedError

    def _must_step(self, n: int) -> bool:
        """Whether ``n`` windows must go through the driver one at a time.

        Drivers that regroup requests by layer would reorder the per-transfer
        jitter draws, so on jittery links they feed themselves one window at
        a time, in arrival order (:meth:`_step`).
        """
        return n > 1 and any(link.jitter_ms > 0.0 for link in self.system.topology.links)

    def _step(self, windows: np.ndarray) -> SchemeRun:
        return SchemeRun.concatenate(
            [self.run_batch(windows[index : index + 1]) for index in range(windows.shape[0])]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
