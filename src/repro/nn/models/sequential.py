"""A Keras-like ``Sequential`` model for feed-forward stacks of layers.

Used for the paper's autoencoder family (AE-IoT / AE-Edge / AE-Cloud) and for
the contextual-bandit policy network.  Training is the one reconstruction loop
of :class:`~repro.nn.training.ReconstructionModel`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.layers.base import Layer
from repro.nn.training import ReconstructionModel
from repro.utils.rng import RngLike


class Sequential(ReconstructionModel):
    """A linear stack of layers trained with backpropagation."""

    def __init__(self, layers: Optional[Sequence[Layer]] = None, name: str = "sequential",
                 seed: RngLike = None) -> None:
        super().__init__(name, seed)
        self.layers: List[Layer] = []
        for layer in layers or []:
            self.add(layer)

    # -- construction ------------------------------------------------------

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer to the stack (returns ``self`` for chaining)."""
        if not isinstance(layer, Layer):
            raise ConfigurationError(f"expected a Layer, got {type(layer)!r}")
        layer.set_rng(self._rng)
        self.layers.append(layer)
        return self

    # -- inference ---------------------------------------------------------

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run all layers in order."""
        if not self.layers:
            raise ConfigurationError("model has no layers")
        output = np.asarray(inputs, dtype=float)
        for layer in self.layers:
            output = layer.forward(output, training=training)
        return output

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass; each output row depends on its input
        row alone (see :func:`~repro.nn.layers.base.batch_invariant_matmul`),
        so any split of the batch gives the same rows."""
        return self.forward(inputs, training=False)

    def __call__(self, inputs: np.ndarray) -> np.ndarray:
        return self.predict(inputs)

    # -- training ----------------------------------------------------------

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate through all layers (latest forward pass)."""
        grad = np.asarray(grad_output, dtype=float)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def _components(self):
        return self.layers

    #: The benchmark harness wraps these names on this class; the loop is
    #: ReconstructionModel's.
    fit = ReconstructionModel.fit
    train_on_batch = ReconstructionModel.train_on_batch

    # -- introspection -------------------------------------------------------

    def build(self, input_dim: int) -> "Sequential":
        """Eagerly build all layers by running a single dummy forward pass."""
        dummy = np.zeros((1, int(input_dim)))
        self.forward(dummy, training=False)
        return self

    def get_weights(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Weights of every layer, keyed by ``f"{index}:{layer.name}"``."""
        return {
            f"{index}:{layer.name}": layer.get_weights()
            for index, layer in enumerate(self.layers)
        }

    def set_weights(self, weights: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Load weights produced by :meth:`get_weights`."""
        for index, layer in enumerate(self.layers):
            key = f"{index}:{layer.name}"
            if key in weights:
                layer.set_weights(weights[key])

    def get_config(self) -> dict:
        """Architecture description (JSON-serialisable, no weights)."""
        return {
            "type": "Sequential",
            "name": self.name,
            "layers": [layer.get_config() for layer in self.layers],
            "optimizer": self.optimizer.get_config() if self.optimizer else None,
            "loss": self.loss.name if self.loss else None,
        }
