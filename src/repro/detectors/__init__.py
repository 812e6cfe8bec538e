"""Anomaly-detection models and scoring.

This subpackage implements the paper's detection side:

* :mod:`repro.detectors.base` — :class:`AnomalyDetector`, the one
  reconstruction detector both families inherit (fit on normal windows, score
  points by logPD, detect and predict, report confidence);
* :mod:`repro.detectors.autoencoder` — the autoencoder family
  (``AE-IoT`` / ``AE-Edge`` / ``AE-Cloud``), which flattens each window to
  one vector, so it reads univariate ``(n, T)`` and multivariate
  ``(n, T, C)`` batches alike;
* :mod:`repro.detectors.lstm_seq2seq` — the LSTM-seq2seq family
  (``LSTM-seq2seq-IoT`` / ``LSTM-seq2seq-Edge`` / ``BiLSTM-seq2seq-Cloud``),
  which reads ``(n, T, C)`` batches and a univariate ``(n, T)`` batch as one
  channel;
* :mod:`repro.detectors.scoring` — the Gaussian log-probability-density
  anomaly score and its minimum-logPD threshold;
* :mod:`repro.detectors.confidence` — the paper's two confident-detection
  rules.

Each family has one constructor per tier, ``build_autoencoder_detector`` and
``build_seq2seq_detector``: the tier picks the architecture and the window
shape picks the input size.
"""

from repro.detectors.base import AnomalyDetector, DetectionResult
from repro.detectors.scoring import GaussianLogPDScorer
from repro.detectors.confidence import ConfidencePolicy
from repro.detectors.autoencoder import (
    AutoencoderDetector,
    build_autoencoder_detector,
    UNIVARIATE_TIER_ARCHITECTURES,
)
from repro.detectors.lstm_seq2seq import (
    Seq2SeqDetector,
    build_seq2seq_detector,
    MULTIVARIATE_TIER_ARCHITECTURES,
)

__all__ = [
    "AnomalyDetector",
    "DetectionResult",
    "GaussianLogPDScorer",
    "ConfidencePolicy",
    "AutoencoderDetector",
    "build_autoencoder_detector",
    "UNIVARIATE_TIER_ARCHITECTURES",
    "Seq2SeqDetector",
    "build_seq2seq_detector",
    "MULTIVARIATE_TIER_ARCHITECTURES",
]
