"""Bidirectional LSTM wrapper.

The paper's cloud-tier multivariate model (``BiLSTM-seq2seq-Cloud``) uses a
bidirectional LSTM encoder.  This wrapper runs one LSTM forward in time and
an independent LSTM over the time-reversed sequence and concatenates the
results (Keras' ``merge_mode="concat"``), both for per-timestep outputs and
for the final states handed to the decoder.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers.base import Layer
from repro.nn.layers.lstm import LSTM, State


class Bidirectional(Layer):
    """Concatenate a forward-time LSTM and a reverse-time LSTM."""

    def __init__(self, forward_layer: LSTM, backward_layer: Optional[LSTM] = None,
                 name: Optional[str] = None) -> None:
        super().__init__(name=name or f"bidirectional_{forward_layer.name}")
        self.forward_layer = forward_layer
        if backward_layer is None:
            config = forward_layer.get_config()
            backward_layer = LSTM(
                units=config["units"],
                return_sequences=config["return_sequences"],
                kernel_initializer=config["kernel_initializer"],
                recurrent_initializer=config["recurrent_initializer"],
                bias_initializer=config["bias_initializer"],
                kernel_regularizer=forward_layer.kernel_regularizer,
                unit_forget_bias=config["unit_forget_bias"],
                double_bias=config["double_bias"],
                name=f"{forward_layer.name}_backward",
            )
        self.backward_layer = backward_layer
        if self.forward_layer.units != self.backward_layer.units:
            raise ShapeError(
                "forward and backward LSTMs must have the same number of units, got "
                f"{self.forward_layer.units} and {self.backward_layer.units}"
            )
        if self.forward_layer.return_sequences != self.backward_layer.return_sequences:
            raise ShapeError("forward and backward LSTMs must agree on return_sequences")
        self.units = 2 * self.forward_layer.units
        self.return_sequences = self.forward_layer.return_sequences
        self.last_state: Optional[State] = None

    # -- lifecycle ---------------------------------------------------------

    def build(self, input_dim: int) -> None:
        self.forward_layer.ensure_built(input_dim, rng=self._rng)
        self.backward_layer.ensure_built(input_dim, rng=self._rng)

    def set_rng(self, seed) -> None:  # noqa: D102 - documented on base class
        super().set_rng(seed)
        self.forward_layer.set_rng(self._rng)
        self.backward_layer.set_rng(self._rng)

    # -- computation -------------------------------------------------------

    def forward(self, inputs: np.ndarray, training: bool = False,
                initial_state: Optional[State] = None) -> np.ndarray:
        if initial_state is not None:
            raise ShapeError("Bidirectional does not support an external initial_state")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 3:
            raise ShapeError(
                f"Bidirectional expects a 3-D input (batch, time, features), got {inputs.shape}"
            )
        self.ensure_built(inputs.shape[2])
        forward_out = self.forward_layer.forward(inputs, training=training)
        backward_out = self.backward_layer.forward(inputs[:, ::-1, :], training=training)

        fh, fc = self.forward_layer.last_state
        bh, bc = self.backward_layer.last_state
        self.last_state = (np.concatenate([fh, bh], axis=1), np.concatenate([fc, bc], axis=1))

        if self.return_sequences:
            # Align the reverse-time output back to the original time order.
            backward_aligned = backward_out[:, ::-1, :]
            return np.concatenate([forward_out, backward_aligned], axis=2)
        return np.concatenate([forward_out, backward_out], axis=1)

    def backward(self, grad_output: np.ndarray,
                 grad_state: Optional[State] = None) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=float)
        units = self.forward_layer.units

        forward_state_grad = None
        backward_state_grad = None
        if grad_state is not None:
            dh, dc = grad_state
            dh = np.asarray(dh, dtype=float)
            dc = np.asarray(dc, dtype=float)
            forward_state_grad = (dh[:, :units], dc[:, :units])
            backward_state_grad = (dh[:, units:], dc[:, units:])

        if self.return_sequences:
            grad_forward = grad_output[:, :, :units]
            grad_backward = grad_output[:, ::-1, units:]
        else:
            grad_forward = grad_output[:, :units]
            grad_backward = grad_output[:, units:]

        grad_inputs_forward = self.forward_layer.backward(grad_forward, grad_state=forward_state_grad)
        grad_inputs_backward = self.backward_layer.backward(grad_backward, grad_state=backward_state_grad)
        return grad_inputs_forward + grad_inputs_backward[:, ::-1, :]

    # -- parameters ----------------------------------------------------------

    def release_training_buffers(self) -> None:
        self.forward_layer.release_training_buffers()
        self.backward_layer.release_training_buffers()

    def parameters_and_gradients(self):
        return (
            self.forward_layer.parameters_and_gradients()
            + self.backward_layer.parameters_and_gradients()
        )

    def parameter_count(self) -> int:
        return self.forward_layer.parameter_count() + self.backward_layer.parameter_count()

    def get_weights(self):
        return {
            "forward": self.forward_layer.get_weights(),
            "backward": self.backward_layer.get_weights(),
        }

    def set_weights(self, weights) -> None:
        self.forward_layer.set_weights(weights["forward"])
        self.backward_layer.set_weights(weights["backward"])

    def regularization_penalty(self) -> float:
        return (
            self.forward_layer.regularization_penalty()
            + self.backward_layer.regularization_penalty()
        )

    def get_config(self) -> dict:
        config = super().get_config()
        config["forward_layer"] = self.forward_layer.get_config()
        config["backward_layer"] = self.backward_layer.get_config()
        return config
