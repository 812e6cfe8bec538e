"""A small, self-contained NumPy neural-network library.

The paper implements its anomaly-detection models and policy network with
TensorFlow/Keras; this subpackage provides the subset of functionality those
models need, implemented from scratch on NumPy:

* parameter initialisers (:mod:`repro.nn.initializers`),
* activations with derivatives (:mod:`repro.nn.activations`),
* layers: ``Dense``, ``Dropout``, ``LSTM``, ``Bidirectional``,
  ``TimeDistributed`` (:mod:`repro.nn.layers`),
* the MSE loss and the L2 kernel regulariser,
* optimisers: ``RMSProp``, ``Adam``,
* a ``Sequential`` feed-forward model and a ``Seq2SeqAutoencoder``
  encoder–decoder model,
* one reconstruction training loop with mini-batching and early stopping, and
* FP16 weight quantisation mirroring the paper's model-compression step.
"""

from repro.nn import activations, initializers
from repro.nn.losses import MeanSquaredError, get_loss
from repro.nn.regularizers import L2Regularizer, ZeroRegularizer, get_regularizer
from repro.nn.optimizers import RMSProp, Adam, get_optimizer
from repro.nn.layers import Dense, Dropout, LSTM, Bidirectional, TimeDistributed
from repro.nn.models.sequential import Sequential
from repro.nn.models.seq2seq import Seq2SeqAutoencoder
from repro.nn.training import TrainingHistory
from repro.nn.quantization import quantize_model, quantization_report

__all__ = [
    "activations",
    "initializers",
    "MeanSquaredError",
    "get_loss",
    "L2Regularizer",
    "ZeroRegularizer",
    "get_regularizer",
    "RMSProp",
    "Adam",
    "get_optimizer",
    "Dense",
    "Dropout",
    "LSTM",
    "Bidirectional",
    "TimeDistributed",
    "Sequential",
    "Seq2SeqAutoencoder",
    "TrainingHistory",
    "quantize_model",
    "quantization_report",
]
