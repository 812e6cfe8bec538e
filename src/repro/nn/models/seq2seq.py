"""LSTM sequence-to-sequence autoencoder (encoder–decoder reconstruction model).

This is the model family the paper uses for multivariate IoT data:

* the encoder (an :class:`~repro.nn.layers.lstm.LSTM` or a
  :class:`~repro.nn.layers.bidirectional.Bidirectional` LSTM) consumes the
  input window and produces its final hidden/cell states;
* the decoder (an LSTM initialised with those encoded states) reconstructs
  the window one step at a time, starting from a zero "start token" and
  feeding back the previous output (teacher forcing during training);
* the decoder output is passed through dropout (rate 0.3 in the paper) and a
  shared fully connected layer with linear activation that maps back to the
  input feature dimension.

Training minimises the mean squared reconstruction error with RMSProp and an
L2 kernel regulariser, matching Section II-A2 of the paper.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.bidirectional import Bidirectional
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.lstm import LSTM
from repro.nn.layers.time_distributed import TimeDistributed
from repro.nn.training import ReconstructionModel
from repro.utils.rng import RngLike


class Seq2SeqAutoencoder(ReconstructionModel):
    """Encoder–decoder reconstruction model over 3-D windows ``(batch, time, features)``."""

    def __init__(
        self,
        encoder: Union[LSTM, Bidirectional],
        decoder: LSTM,
        output_dim: int,
        dropout_rate: float = 0.3,
        kernel_regularizer: Union[float, None] = 1e-4,
        name: str = "seq2seq",
        seed: RngLike = None,
    ) -> None:
        if not decoder.return_sequences:
            raise ConfigurationError("the decoder LSTM must have return_sequences=True")
        if encoder.return_sequences:
            raise ConfigurationError("the encoder must have return_sequences=False")
        if decoder.units != encoder.units:
            raise ConfigurationError(
                "decoder units must equal the encoder state size "
                f"({encoder.units}), got {decoder.units}"
            )
        super().__init__(name, seed)
        self.encoder = encoder
        self.decoder = decoder
        self.output_dim = int(output_dim)
        self.dropout = Dropout(dropout_rate, name=f"{name}_dropout")
        self.projection = TimeDistributed(
            Dense(
                self.output_dim,
                activation="linear",
                kernel_regularizer=kernel_regularizer,
                name=f"{name}_projection",
            )
        )
        for component in (self.encoder, self.decoder, self.dropout, self.projection):
            component.set_rng(self._rng)
        self._built = False

    # -- construction ------------------------------------------------------

    def build(self, timesteps: int, features: int) -> "Seq2SeqAutoencoder":
        """Eagerly build all components with a dummy forward pass."""
        dummy = np.zeros((1, int(timesteps), int(features)))
        self.forward(dummy, training=False)
        return self

    # -- forward / backward --------------------------------------------------

    @staticmethod
    def _decoder_inputs_from_targets(targets: np.ndarray) -> np.ndarray:
        """Teacher-forcing decoder inputs: a zero start token followed by the shifted targets."""
        batch, _timesteps, features = targets.shape
        start = np.zeros((batch, 1, features))
        return np.concatenate([start, targets[:, :-1, :]], axis=1)

    def forward(self, inputs: np.ndarray, training: bool = False,
                decoder_inputs: Optional[np.ndarray] = None) -> np.ndarray:
        """Teacher-forced forward pass; reconstruction has the same shape as ``inputs``."""
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 3:
            raise ShapeError(
                f"Seq2SeqAutoencoder expects 3-D inputs (batch, time, features), got {inputs.shape}"
            )
        if inputs.shape[2] != self.output_dim and self._built:
            raise ShapeError(
                f"model was built for {self.output_dim} features, got {inputs.shape[2]}"
            )
        if decoder_inputs is None:
            decoder_inputs = self._decoder_inputs_from_targets(inputs)
        self.encoder.forward(inputs, training=training)
        encoded_state = self.encoder.last_state
        decoded = self.decoder.forward(
            decoder_inputs, training=training, initial_state=encoded_state
        )
        dropped = self.dropout.forward(decoded, training=training)
        reconstruction = self.projection.forward(dropped, training=training)
        self._built = True
        return reconstruction

    def backward(self, grad_output: np.ndarray) -> None:
        """Backpropagate the reconstruction-loss gradient through decoder and encoder."""
        grad = self.projection.backward(np.asarray(grad_output, dtype=float))
        grad = self.dropout.backward(grad)
        self.decoder.backward(grad)
        grad_h0, grad_c0 = self.decoder.grad_initial_state
        encoder_output_grad = np.zeros_like(grad_h0)
        self.encoder.backward(encoder_output_grad, grad_state=(grad_h0, grad_c0))

    # -- training -------------------------------------------------------------

    def _components(self):
        return (self.encoder, self.decoder, self.projection)

    #: The benchmark harness wraps these names on this class; the loop is
    #: ReconstructionModel's.
    fit = ReconstructionModel.fit
    train_on_batch = ReconstructionModel.train_on_batch

    # -- inference --------------------------------------------------------------

    def encode(self, inputs: np.ndarray) -> np.ndarray:
        """Return the encoder's final hidden state for each window.

        The paper feeds these encoded states to the policy network as the
        contextual information of multivariate windows.
        """
        inputs = np.asarray(inputs, dtype=float)
        self.encoder.forward(inputs, training=False)
        hidden, _cell = self.encoder.last_state
        return hidden

    def reconstruct(self, inputs: np.ndarray, teacher_forcing: bool = False) -> np.ndarray:
        """Reconstruct windows.

        ``teacher_forcing=True`` feeds the true previous value to the decoder
        (cheap, used during training-time evaluation); ``False`` (default)
        decodes autoregressively from the model's own previous output, which
        is the behaviour at detection time in the paper.
        """
        inputs = np.asarray(inputs, dtype=float)
        if teacher_forcing:
            return self.forward(inputs, training=False)
        return self._reconstruct_autoregressive(inputs)

    def _reconstruct_autoregressive(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 3:
            raise ShapeError(f"inputs must be 3-D, got shape {inputs.shape}")
        if not self._built:
            # Building requires one teacher-forced pass to initialise parameters.
            self.forward(inputs[:1], training=False)
        batch, timesteps, features = inputs.shape
        self.encoder.forward(inputs, training=False)
        state = self.encoder.last_state
        # The decoder stepped one timepoint at a time, state carried over, its
        # own projected output fed back (the start token is zero).
        previous_output = np.zeros((batch, 1, features))
        reconstruction = np.empty((batch, timesteps, features))
        for t in range(timesteps):
            decoded = self.decoder.forward(previous_output, initial_state=state)
            state = self.decoder.last_state
            previous_output = self.projection.forward(self.dropout.forward(decoded))
            reconstruction[:, t: t + 1, :] = previous_output
        return reconstruction

    # -- introspection ------------------------------------------------------------

    def get_weights(self) -> dict:
        """Weights of every component, keyed by component role."""
        return {
            "encoder": self.encoder.get_weights(),
            "decoder": self.decoder.get_weights(),
            "projection": self.projection.get_weights(),
        }

    def set_weights(self, weights: dict) -> None:
        """Load weights produced by :meth:`get_weights`."""
        self.encoder.set_weights(weights["encoder"])
        self.decoder.set_weights(weights["decoder"])
        self.projection.set_weights(weights["projection"])

    def get_config(self) -> dict:
        """Architecture description (JSON-serialisable, no weights)."""
        return {
            "type": "Seq2SeqAutoencoder",
            "name": self.name,
            "encoder": self.encoder.get_config(),
            "decoder": self.decoder.get_config(),
            "output_dim": self.output_dim,
            "dropout_rate": self.dropout.rate,
            "optimizer": self.optimizer.get_config() if self.optimizer else None,
            "loss": self.loss.name if self.loss else None,
        }
