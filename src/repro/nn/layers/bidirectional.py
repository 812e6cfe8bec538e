"""Bidirectional LSTM wrapper.

The paper's cloud-tier multivariate model (``BiLSTM-seq2seq-Cloud``) uses a
bidirectional LSTM encoder.  This wrapper holds one LSTM for forward time and
one for the time-reversed sequence and concatenates the results (Keras'
``merge_mode="concat"``), both for per-timestep outputs and for the final
states handed to the decoder.

The two LSTMs hold the parameters.  The steps run through :mod:`.lstm`'s one
forward and one BPTT loop with both directions as one ``(2, batch, ...)``
block: half the ufunc calls of two LSTMs for the same arithmetic, so the same
bits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers.base import Layer
from repro.nn.layers.lstm import (
    LSTM, State, _bptt_steps, _check_input, _forward_steps, _SequenceCache,
)


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
        self.input_dim: Optional[int] = None
        self.last_state: Optional[State] = None
        self._cache: Optional[_SequenceCache] = None

    # -- lifecycle ---------------------------------------------------------

    def build(self, input_dim: int) -> None:
        self.forward_layer.ensure_built(input_dim, rng=self._rng)
        self.backward_layer.ensure_built(input_dim, rng=self._rng)
        self.input_dim = int(input_dim)

    def set_rng(self, seed) -> None:  # noqa: D102 - documented on base class
        super().set_rng(seed)
        self.forward_layer.set_rng(self._rng)
        self.backward_layer.set_rng(self._rng)

    # -- computation -------------------------------------------------------

    def forward(self, inputs: np.ndarray, training: bool = False,
                initial_state: Optional[State] = None) -> np.ndarray:
        if initial_state is not None:
            raise ShapeError("Bidirectional does not support an external initial_state")
        inputs = _check_input(self, inputs)
        batch, timesteps, _features = inputs.shape
        units = self.forward_layer.units
        layers = (self.forward_layer, self.backward_layer)
        # The reverse-time direction reads a time-reversed view, as its own LSTM would.
        directions = (inputs, inputs[:, ::-1, :])
        projection = np.empty((2, batch, timesteps, 4 * units))
        for layer, x, out in zip(layers, directions, projection):
            layer._input_projection(x, out=out)
        bias = np.stack([layer._bias() for layer in layers])[:, None, :]
        recurrent = np.stack([layer.params["recurrent_kernel"] for layer in layers])
        h, c = np.zeros((2, 2, batch, units))
        h, c, outputs, self._cache = _forward_steps(
            directions, projection, recurrent, bias, h, c, training, self.return_sequences
        )
        # (direction, batch, units) -> (batch, 2 * units), forward direction first.
        self.last_state = (np.concatenate(h, axis=1), np.concatenate(c, axis=1))
        if self.return_sequences:
            forward_out, backward_out = outputs.swapaxes(0, 1)
            # The reverse-time output back in time order, then batch-major.
            aligned = (forward_out, backward_out[::-1])
            return np.concatenate([out.transpose(1, 0, 2) for out in aligned], axis=2)
        return self.last_state[0]

    def backward(self, grad_output: np.ndarray,
                 grad_state: Optional[State] = None) -> np.ndarray:
        if self._cache is None:
            raise ShapeError("backward called before forward(training=True) on Bidirectional layer")
        layers = (self.forward_layer, self.backward_layer)
        directions = self._cache.inputs
        batch, timesteps, _features = directions[0].shape
        units = self.forward_layer.units
        grad_output = np.asarray(grad_output, dtype=float)
        # (batch, [time,] 2 * units) -> time-major (time, direction, batch, units).
        if self.return_sequences:
            halves = (grad_output[:, :, :units], grad_output[:, ::-1, units:])
            grad_h_seq = np.stack(halves).transpose(2, 0, 1, 3)
        else:
            grad_h_seq = np.zeros((timesteps, 2, batch, units))
            grad_h_seq[-1] = grad_output.reshape(batch, 2, units).transpose(1, 0, 2)
        dh_next, dc = np.zeros((2, 2, batch, units))
        for total, extra in zip((dh_next, dc), () if grad_state is None else grad_state):
            total += np.asarray(extra, dtype=float).reshape(batch, 2, units).transpose(1, 0, 2)
        # A view of the kernels' transposes: a contiguous copy would pick
        # another BLAS kernel and change the last bits.
        kernels = np.stack([layer.params["recurrent_kernel"] for layer in layers])
        dz_all = _bptt_steps(self._cache, grad_h_seq, kernels.transpose(0, 2, 1), dh_next, dc)
        grad_inputs_forward, grad_inputs_backward = (
            layer._weight_gradients(x, h_states, dz)
            for layer, x, dz, h_states in zip(
                layers, directions, dz_all.swapaxes(0, 1), self._cache.h_states.swapaxes(0, 1)
            )
        )
        return grad_inputs_forward + grad_inputs_backward[:, ::-1, :]

    # -- parameters ----------------------------------------------------------

    def release_training_buffers(self) -> None:
        """Also drop the stacked BPTT tensors of the last training forward."""
        self._cache = None
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
