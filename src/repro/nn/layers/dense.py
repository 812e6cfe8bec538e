"""Fully connected (dense) layer with optional activation and kernel regulariser."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.activations import Activation, get_activation
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, batch_invariant_matmul
from repro.nn.regularizers import Regularizer, ZeroRegularizer, get_regularizer
from repro.utils.validation import check_positive


class Dense(Layer):
    """``y = activation(x @ W + b)``.

    Accepts 2-D inputs ``(batch, features)``.  For time-distributed
    application over 3-D sequences wrap it in
    :class:`repro.nn.layers.time_distributed.TimeDistributed`.
    """

    def __init__(
        self,
        units: int,
        activation: Union[str, Activation, None] = "linear",
        kernel_initializer: str = "glorot_uniform",
        bias_initializer: str = "zeros",
        kernel_regularizer: Union[Regularizer, str, float, None] = None,
        use_bias: bool = True,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.units = int(check_positive(units, "units"))
        self.activation = get_activation(activation)
        self.kernel_initializer = kernel_initializer
        self.bias_initializer = bias_initializer
        self.kernel_regularizer = get_regularizer(kernel_regularizer)
        self.use_bias = bool(use_bias)
        self.input_dim: Optional[int] = None
        self._cache_input: Optional[np.ndarray] = None
        self._cache_output: Optional[np.ndarray] = None

    def build(self, input_dim: int) -> None:
        self.input_dim = int(input_dim)
        kernel_init = get_initializer(self.kernel_initializer)
        bias_init = get_initializer(self.bias_initializer)
        self.params["kernel"] = kernel_init((self.input_dim, self.units), self._rng)
        if self.use_bias:
            self.params["bias"] = bias_init((self.units,), self._rng)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2:
            raise ShapeError(
                f"Dense expects a 2-D input (batch, features), got shape {inputs.shape}"
            )
        self.ensure_built(inputs.shape[1])
        if inputs.shape[1] != self.input_dim:
            raise ShapeError(
                f"Dense {self.name!r} was built with input_dim={self.input_dim}, "
                f"got input with {inputs.shape[1]} features"
            )
        # Bias and activation run in place on the matmul's fresh result.  An
        # inference row does not depend on the rest of its batch.
        kernel = self.params["kernel"]
        if training:
            pre_activation = inputs @ kernel
        else:
            pre_activation = batch_invariant_matmul(inputs, kernel)
        if self.use_bias:
            pre_activation += self.params["bias"]
        output = self.activation.forward(pre_activation, out=pre_activation)
        # Only a training pass is followed by ``backward``.
        self._cache_input = inputs if training else None
        self._cache_output = output if training else None
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input is None or self._cache_output is None:
            raise ShapeError("backward called before forward(training=True) on Dense layer")
        grad_output = np.asarray(grad_output, dtype=float)
        grad_pre = self.activation.backward(self._cache_output, grad_output)
        grads = self.gradient_buffers()
        np.matmul(self._cache_input.T, grad_pre, out=grads["kernel"])
        if not isinstance(self.kernel_regularizer, ZeroRegularizer):
            grads["kernel"] += self.kernel_regularizer.gradient(self.params["kernel"])
        if self.use_bias:
            np.sum(grad_pre, axis=0, out=grads["bias"])
        return grad_pre @ self.params["kernel"].T

    def regularization_penalty(self) -> float:
        if not self.built:
            return 0.0
        return self.kernel_regularizer.penalty(self.params["kernel"])

    def get_config(self) -> dict:
        config = super().get_config()
        config.update(
            {
                "units": self.units,
                "activation": self.activation.name,
                "kernel_initializer": self.kernel_initializer,
                "bias_initializer": self.bias_initializer,
                "kernel_regularizer": self.kernel_regularizer.get_config(),
                "use_bias": self.use_bias,
            }
        )
        return config
