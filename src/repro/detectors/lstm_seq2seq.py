"""LSTM sequence-to-sequence detectors for multivariate IoT data.

Following Section II-A2 of the paper, three encoder–decoder models of
increasing complexity are associated with the HEC layers:

* ``LSTM-seq2seq-IoT`` — a plain LSTM encoder/decoder (50 units each at the
  paper's 18-channel scale);
* ``LSTM-seq2seq-Edge`` — double the LSTM units (100), with the CuDNN-style
  double-bias parameterisation the paper's GPU implementation implies;
* ``BiLSTM-seq2seq-Cloud`` — a bidirectional LSTM encoder (200 units per
  direction) feeding a 400-unit decoder.

At the 18-channel scale these choices give parameter counts of 28,518 /
97,818 / 1,031,218 against the paper's 28,518 / 97,818 / 1,028,018.

Each detector reconstructs windows, fits a multivariate Gaussian on the
per-timestep reconstruction-error vectors of normal training windows, scores
with logPD and thresholds at the training-set minimum, exactly like the
autoencoder family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.detectors.base import AnomalyDetector
from repro.detectors.confidence import ConfidencePolicy
from repro.nn.layers.bidirectional import Bidirectional
from repro.nn.layers.lstm import LSTM
from repro.nn.models.seq2seq import Seq2SeqAutoencoder
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class Seq2SeqArchitecture:
    """Architecture knobs of one seq2seq tier."""

    units: int
    bidirectional: bool
    double_bias: bool


#: Architectures per HEC tier at the paper's 18-channel scale.  ``units`` is
#: the encoder size per direction; the decoder matches the encoder state size.
MULTIVARIATE_TIER_ARCHITECTURES: dict[str, Seq2SeqArchitecture] = {
    "iot": Seq2SeqArchitecture(units=50, bidirectional=False, double_bias=False),
    "edge": Seq2SeqArchitecture(units=100, bidirectional=False, double_bias=True),
    "cloud": Seq2SeqArchitecture(units=200, bidirectional=True, double_bias=True),
}
_PAPER_NAMES = {
    "iot": "LSTM-seq2seq-IoT", "edge": "LSTM-seq2seq-Edge", "cloud": "BiLSTM-seq2seq-Cloud",
}


class Seq2SeqDetector(AnomalyDetector):
    """An LSTM encoder–decoder reconstruction detector with Gaussian logPD scoring."""

    #: RMSProp + MSE, as in the paper.
    OPTIMIZER = "rmsprop"

    def __init__(
        self,
        n_channels: int,
        units: int,
        bidirectional: bool = False,
        double_bias: bool = False,
        dropout_rate: float = 0.3,
        kernel_regularizer: float | None = 1e-4,
        inference_mode: str = "autoregressive",
        confidence: Optional[ConfidencePolicy] = None,
        name: str = "lstm-seq2seq",
        seed: RngLike = 0,
    ) -> None:
        super().__init__(name=name, confidence=confidence)
        if n_channels <= 0:
            raise ConfigurationError(f"n_channels must be positive, got {n_channels}")
        if units <= 0:
            raise ConfigurationError(f"units must be positive, got {units}")
        if inference_mode not in ("autoregressive", "teacher_forcing"):
            raise ConfigurationError(
                "inference_mode must be 'autoregressive' or 'teacher_forcing', "
                f"got {inference_mode!r}"
            )
        self.n_channels = int(n_channels)
        self.units = int(units)
        self.bidirectional = bool(bidirectional)
        self.inference_mode = inference_mode

        encoder_lstm = LSTM(
            self.units,
            return_sequences=False,
            double_bias=double_bias,
            name=f"{name}_encoder",
        )
        if bidirectional:
            encoder = Bidirectional(encoder_lstm, name=f"{name}_bidirectional_encoder")
            decoder_units = 2 * self.units
        else:
            encoder = encoder_lstm
            decoder_units = self.units
        decoder = LSTM(
            decoder_units,
            return_sequences=True,
            double_bias=double_bias,
            name=f"{name}_decoder",
        )
        self.model = Seq2SeqAutoencoder(
            encoder=encoder,
            decoder=decoder,
            output_dim=self.n_channels,
            dropout_rate=dropout_rate,
            kernel_regularizer=kernel_regularizer,
            name=name,
            seed=seed,
        )

    #: The benchmark harness wraps these names on this class; the recipe is
    #: AnomalyDetector's.
    fit = AnomalyDetector.fit
    detect = AnomalyDetector.detect
    detect_arrays = AnomalyDetector.detect_arrays

    # -- inference --------------------------------------------------------------------

    def _check_windows(self, windows: np.ndarray) -> np.ndarray:
        """A ``(n, T, C)`` window batch; a 2-D ``(n, T)`` batch gets one channel."""
        windows = np.asarray(windows, dtype=float)
        batch = windows[:, :, None] if windows.ndim == 2 else windows
        if batch.ndim != 3:
            raise ShapeError(
                "windows must be a batch (n_windows, window_size[, channels]), "
                f"got shape {windows.shape}"
            )
        if batch.shape[2] != self.n_channels:
            raise ShapeError(
                f"windows of shape {windows.shape} have {batch.shape[2]} channel(s) per "
                f"point but the detector expects {self.n_channels}"
            )
        return batch

    def reconstruct(self, windows: np.ndarray) -> np.ndarray:
        """Reconstruct windows with the seq2seq model (mode set at construction)."""
        windows = self._check_windows(windows)
        teacher_forcing = self.inference_mode == "teacher_forcing"
        return self.model.reconstruct(windows, teacher_forcing=teacher_forcing)

    def context_features(self, windows: np.ndarray) -> np.ndarray:
        """Encoder hidden states, used as the policy network's contextual input."""
        windows = self._check_windows(windows)
        return self.model.encode(windows)


def build_seq2seq_detector(
    tier: str,
    n_channels: int,
    units: Optional[int] = None,
    inference_mode: str = "autoregressive",
    confidence: Optional[ConfidencePolicy] = None,
    dropout_rate: float = 0.3,
    name: Optional[str] = None,
    seed: RngLike = 0,
) -> Seq2SeqDetector:
    """Build the seq2seq detector for an HEC tier.

    A paper tier (``"iot"``, ``"edge"`` or ``"cloud"``) gets its paper-scale
    architecture and name; ``units`` and ``name`` override either one.  Any
    other tier needs ``units`` and gets a unidirectional, single-bias model
    named ``seq2seq-<tier>``.
    """
    architecture = MULTIVARIATE_TIER_ARCHITECTURES.get(tier.lower())
    if architecture is None:
        if units is None:
            raise ConfigurationError(
                f"seq2seq at custom tier {tier!r} needs explicit units; the paper tiers "
                f"are {sorted(MULTIVARIATE_TIER_ARCHITECTURES)}"
            )
        architecture = Seq2SeqArchitecture(units, bidirectional=False, double_bias=False)
        default_name = f"seq2seq-{tier}"
    else:
        default_name = _PAPER_NAMES[tier.lower()]
    return Seq2SeqDetector(
        n_channels=n_channels,
        units=units if units is not None else architecture.units,
        bidirectional=architecture.bidirectional,
        double_bias=architecture.double_bias,
        dropout_rate=dropout_rate,
        inference_mode=inference_mode,
        confidence=confidence,
        name=name if name is not None else default_name,
        seed=seed,
    )
