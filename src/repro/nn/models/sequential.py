"""A Keras-like ``Sequential`` model for feed-forward stacks of layers.

Used for the paper's autoencoder family (AE-IoT / AE-Edge / AE-Cloud) and for
the contextual-bandit policy network.  The model supports compile/fit/predict
with mini-batch training and early stopping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.nn.layers.base import Layer
from repro.nn.losses import Loss, get_loss
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.nn.training import EarlyStopping, TrainingHistory, iterate_minibatches
from repro.utils.rng import RngLike, ensure_rng


class Sequential:
    """A linear stack of layers trained with backpropagation."""

    def __init__(self, layers: Optional[Sequence[Layer]] = None, name: str = "sequential",
                 seed: RngLike = None) -> None:
        self.name = name
        self.layers: List[Layer] = []
        self._rng = ensure_rng(seed)
        self.optimizer: Optional[Optimizer] = None
        self.loss: Optional[Loss] = None
        self.history = TrainingHistory()
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

    def compile(self, optimizer: Union[str, Optimizer, None] = "rmsprop",
                loss: Union[str, Loss, None] = "mse", **optimizer_kwargs) -> "Sequential":
        """Attach an optimiser and a loss; must be called before :meth:`fit`."""
        self.optimizer = get_optimizer(optimizer, **optimizer_kwargs)
        self.loss = get_loss(loss)
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

    def release_training_buffers(self) -> None:
        """Free what only training needs: gradient buffers and optimiser moments."""
        for layer in self.layers:
            layer.release_training_buffers()
        if self.optimizer is not None:
            self.optimizer.reset()

    def parameters_and_gradients(self):
        """All (parameter, gradient) pairs across the built layers."""
        pairs = []
        for layer in self.layers:
            if layer.built:
                pairs.extend(layer.parameters_and_gradients())
        return pairs

    def regularization_penalty(self) -> float:
        """Total regularisation penalty across layers."""
        return float(sum(layer.regularization_penalty() for layer in self.layers))

    def train_on_batch(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One gradient step on a single mini-batch; returns the batch loss."""
        if self.optimizer is None or self.loss is None:
            raise NotFittedError("model must be compiled before training")
        predictions = self.forward(inputs, training=True)
        loss_value = self.loss.value(predictions, targets) + self.regularization_penalty()
        grad = self.loss.gradient(predictions, targets)
        self.backward(grad)
        self.optimizer.step(self.parameters_and_gradients())
        return float(loss_value)

    def fit(
        self,
        inputs: np.ndarray,
        targets: Optional[np.ndarray] = None,
        epochs: int = 10,
        batch_size: int = 32,
        shuffle: bool = True,
        early_stopping: Optional[EarlyStopping] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train the model.

        ``targets=None`` trains the model as an autoencoder (targets are the
        inputs themselves), which is how the paper's AE models are trained.
        """
        if self.optimizer is None or self.loss is None:
            raise NotFittedError("model must be compiled before training")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim < 2:
            raise ShapeError(f"training inputs must be at least 2-D, got shape {inputs.shape}")
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")

        autoencoding = targets is None
        train_targets = None if autoencoding else np.asarray(targets, dtype=float)

        self.history = TrainingHistory()
        for epoch in range(1, epochs + 1):
            epoch_losses = []
            for batch_inputs, batch_targets in iterate_minibatches(
                inputs, train_targets, batch_size, shuffle=shuffle, rng=self._rng
            ):
                if autoencoding:
                    batch_targets = batch_inputs
                epoch_losses.append(self.train_on_batch(batch_inputs, batch_targets))
            mean_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            self.history.record("loss", mean_loss)
            if verbose:
                print(f"[{self.name}] epoch {epoch}/{epochs} loss={mean_loss:.6f}")
            if early_stopping is not None and early_stopping.update(epoch, self.history):
                break
        return self.history

    # -- introspection -------------------------------------------------------

    def parameter_count(self) -> int:
        """Total number of trainable scalar parameters (layers must be built)."""
        return int(sum(layer.parameter_count() for layer in self.layers))

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
