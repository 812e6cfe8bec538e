"""Autoencoder-based detectors for univariate IoT data (AE-IoT / AE-Edge / AE-Cloud).

Following Section II-A1 of the paper, three fully connected autoencoders of
increasing depth (three, five and seven layers) are associated with the IoT,
edge and cloud layers of the HEC system.  Each autoencoder is trained to
reconstruct normal weekly windows; reconstruction errors are scored with the
Gaussian logPD scorer and thresholded at the training-set minimum.

The default hidden-layer sizes are chosen so that, at the paper's window size
of 672 samples (one week of 15-minute data), the parameter counts match
Table I as closely as the published numbers allow:

========  ==========================  ===================  ==================
Tier      Hidden layers               Parameters (paper)   Parameters (ours)
========  ==========================  ===================  ==================
IoT       (201,)                      271,017              271,017
Edge      (512, 256, 512)             949,468              952,224
Cloud     (512, 256, 128, 256, 512)   1,085,077            1,018,144
========  ==========================  ===================  ==================
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.detectors.base import AnomalyDetector
from repro.detectors.confidence import ConfidencePolicy
from repro.nn.layers.dense import Dense
from repro.nn.models.sequential import Sequential
from repro.utils.rng import RngLike

#: Hidden-layer sizes per HEC tier for the paper-scale (672-sample) window.
UNIVARIATE_TIER_ARCHITECTURES: dict[str, Tuple[int, ...]] = {
    "iot": (201,),
    "edge": (512, 256, 512),
    "cloud": (512, 256, 128, 256, 512),
}
_PAPER_NAMES = {"iot": "AE-IoT", "edge": "AE-Edge", "cloud": "AE-Cloud"}


class AutoencoderDetector(AnomalyDetector):
    """A fully connected autoencoder with Gaussian logPD scoring."""

    OPTIMIZER = "adam"
    #: A univariate window has one value per point.
    n_channels = 1

    def __init__(
        self,
        window_size: int,
        hidden_sizes: Sequence[int],
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        confidence: Optional[ConfidencePolicy] = None,
        name: str = "autoencoder",
        seed: RngLike = 0,
    ) -> None:
        super().__init__(name=name, confidence=confidence)
        if window_size <= 0:
            raise ConfigurationError(f"window_size must be positive, got {window_size}")
        if not hidden_sizes:
            raise ConfigurationError("hidden_sizes must contain at least one layer size")
        self.window_size = int(window_size)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)

        layers = [
            Dense(units, activation=hidden_activation, name=f"{name}_hidden_{i}")
            for i, units in enumerate(self.hidden_sizes)
        ]
        layers.append(Dense(self.window_size, activation=output_activation, name=f"{name}_output"))
        self.model = Sequential(layers, name=name, seed=seed)
        self.model.build(self.window_size)

    #: The benchmark harness wraps these names on this class; the recipe is
    #: AnomalyDetector's.
    fit = AnomalyDetector.fit
    detect = AnomalyDetector.detect
    detect_arrays = AnomalyDetector.detect_arrays

    # -- inference -----------------------------------------------------------------

    def _check_windows(self, windows: np.ndarray) -> np.ndarray:
        """A ``(n, ...)`` window batch as ``(n, window_size)`` rows: trailing axes flatten."""
        windows = np.asarray(windows, dtype=float)
        if windows.ndim < 2:
            raise ShapeError(
                f"windows must be a batch (n_windows, ...), got shape {windows.shape}"
            )
        width = math.prod(windows.shape[1:])
        if width != self.window_size:
            raise ShapeError(
                f"windows of shape {windows.shape} hold {width} values each but the "
                f"detector expects {self.window_size}"
            )
        return windows.reshape(windows.shape[0], width)

    def reconstruct(self, windows: np.ndarray) -> np.ndarray:
        """Reconstruct windows with the autoencoder."""
        windows = self._check_windows(windows)
        return self.model.predict(windows)


def build_autoencoder_detector(
    tier: str,
    window_size: int,
    hidden_sizes: Optional[Sequence[int]] = None,
    name: Optional[str] = None,
    confidence: Optional[ConfidencePolicy] = None,
    seed: RngLike = 0,
) -> AutoencoderDetector:
    """Build the AE detector for an HEC tier.

    A paper tier (``"iot"``, ``"edge"`` or ``"cloud"``) gets its paper-scale
    architecture and name; ``hidden_sizes`` and ``name`` override either one.
    Any other tier needs ``hidden_sizes`` and is named ``AE-<tier>``.
    """
    paper_sizes = UNIVARIATE_TIER_ARCHITECTURES.get(tier.lower())
    if paper_sizes is None:
        if hidden_sizes is None:
            raise ConfigurationError(
                f"autoencoder at custom tier {tier!r} needs explicit hidden_sizes; the "
                f"paper tiers are {sorted(UNIVARIATE_TIER_ARCHITECTURES)}"
            )
        default_name = f"AE-{tier}"
    else:
        default_name = _PAPER_NAMES[tier.lower()]
    return AutoencoderDetector(
        window_size=window_size,
        hidden_sizes=hidden_sizes if hidden_sizes is not None else paper_sizes,
        confidence=confidence,
        name=name if name is not None else default_name,
        seed=seed,
    )
