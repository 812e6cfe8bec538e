"""TimeDistributed wrapper: apply a 2-D layer independently at every timestep.

Used by the seq2seq models to project the decoder's hidden sequence back to
the input feature dimension with a single shared ``Dense`` layer, exactly as
the paper's Keras implementation does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers.base import Layer


class TimeDistributed(Layer):
    """Apply ``inner`` (a layer over 2-D inputs) to every timestep of a 3-D tensor."""

    def __init__(self, inner: Layer, name: Optional[str] = None) -> None:
        super().__init__(name=name or f"time_distributed_{inner.name}")
        self.inner = inner
        self._input_shape: Optional[tuple[int, int, int]] = None

    def build(self, input_dim: int) -> None:
        self.inner.ensure_built(input_dim, rng=self._rng)
        # Mirror the inner layer's parameters so the model can collect them uniformly.
        self.params = self.inner.params
        self.grads = self.inner.grads

    def set_rng(self, seed) -> None:  # noqa: D102 - documented on base class
        super().set_rng(seed)
        self.inner.set_rng(seed)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 3:
            raise ShapeError(
                f"TimeDistributed expects a 3-D input (batch, time, features), got {inputs.shape}"
            )
        batch, timesteps, features = inputs.shape
        self.ensure_built(features)
        self._input_shape = (batch, timesteps, features)
        flat = inputs.reshape(batch * timesteps, features)
        flat_output = self.inner.forward(flat, training=training)
        return flat_output.reshape(batch, timesteps, -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise ShapeError("backward called before forward on TimeDistributed layer")
        batch, timesteps, features = self._input_shape
        grad_output = np.asarray(grad_output, dtype=float)
        flat_grad = grad_output.reshape(batch * timesteps, -1)
        flat_input_grad = self.inner.backward(flat_grad)
        return flat_input_grad.reshape(batch, timesteps, features)

    def release_training_buffers(self) -> None:
        self.inner.release_training_buffers()

    def parameters_and_gradients(self):
        return self.inner.parameters_and_gradients()

    def parameter_count(self) -> int:
        return self.inner.parameter_count()

    def get_weights(self):
        return self.inner.get_weights()

    def set_weights(self, weights) -> None:
        self.inner.set_weights(weights)

    def regularization_penalty(self) -> float:
        return self.inner.regularization_penalty()

    def get_config(self) -> dict:
        config = super().get_config()
        config["inner"] = self.inner.get_config()
        return config
