"""The one training loop: a reconstruction model fitted to its own inputs.

Both model containers — the feed-forward :class:`~repro.nn.models.sequential.Sequential`
and the :class:`~repro.nn.models.seq2seq.Seq2SeqAutoencoder` — inherit
:class:`ReconstructionModel`: every mini-batch is its own target, the loss is
the model's MSE plus its regularisation penalty, and training stops early once
the epoch loss has not dropped below its best for ``patience`` epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.nn.losses import Loss, get_loss
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class TrainingHistory:
    """The per-epoch mean loss recorded by ``fit``."""

    losses: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.losses)


def iterate_minibatches(
    inputs: np.ndarray, batch_size: int, rng: RngLike = None
) -> Iterator[np.ndarray]:
    """Yield mini-batches of ``inputs`` in one shuffled order drawn from ``rng``."""
    if batch_size <= 0:
        raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
    indices = np.arange(inputs.shape[0])
    ensure_rng(rng).shuffle(indices)
    for start in range(0, len(indices), batch_size):
        yield inputs[indices[start: start + batch_size]]


class ReconstructionModel:
    """A model trained to reconstruct its inputs.

    Subclasses define ``forward``, ``backward`` and ``_components()`` (the
    layers that hold its parameters); training is written here once.
    """

    def __init__(self, name: str, seed: RngLike) -> None:
        self.name = name
        self._rng = ensure_rng(seed)
        self.optimizer: Optional[Optimizer] = None
        self.loss: Optional[Loss] = None
        self.history = TrainingHistory()

    def compile(self, optimizer: Union[str, Optimizer, None] = "rmsprop",
                loss: Union[str, Loss, None] = "mse", **optimizer_kwargs):
        """Attach an optimiser and a loss; must be called before :meth:`fit`."""
        self.optimizer = get_optimizer(optimizer, **optimizer_kwargs)
        self.loss = get_loss(loss)
        return self

    def release_training_buffers(self) -> None:
        """Free what only training needs: gradient buffers and optimiser moments."""
        for component in self._components():
            component.release_training_buffers()
        if self.optimizer is not None:
            self.optimizer.reset()

    def parameters_and_gradients(self):
        """All (parameter, gradient) pairs across the built components."""
        pairs = []
        for component in self._components():
            if component.built:
                pairs.extend(component.parameters_and_gradients())
        return pairs

    def regularization_penalty(self) -> float:
        """Total regularisation penalty across components."""
        return float(sum(c.regularization_penalty() for c in self._components()))

    def parameter_count(self) -> int:
        """Total number of trainable scalar parameters (components must be built)."""
        return int(sum(c.parameter_count() for c in self._components()))

    def train_on_batch(self, inputs: np.ndarray) -> float:
        """One gradient step reconstructing a single mini-batch; returns its loss."""
        if self.optimizer is None or self.loss is None:
            raise NotFittedError("model must be compiled before training")
        inputs = np.asarray(inputs, dtype=float)
        reconstruction = self.forward(inputs, training=True)
        loss_value = self.loss.value(reconstruction, inputs) + self.regularization_penalty()
        self.backward(self.loss.gradient(reconstruction, inputs))
        self.optimizer.step(self.parameters_and_gradients())
        return float(loss_value)

    def fit(
        self,
        inputs: np.ndarray,
        *,
        epochs: int = 10,
        batch_size: int = 16,
        patience: Optional[int] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train the model to reconstruct ``inputs``, one shuffle per epoch.

        With ``patience`` set, training stops once the epoch loss has not
        dropped below its best for ``patience`` epochs.
        """
        if self.optimizer is None or self.loss is None:
            raise NotFittedError("model must be compiled before training")
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim < 2:
            raise ShapeError(f"training inputs must be at least 2-D, got shape {inputs.shape}")
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        if patience is not None and patience < 0:
            raise ConfigurationError(f"patience must be non-negative, got {patience}")

        self.history = TrainingHistory()
        best, wait = None, 0
        # A large step runs on two threads while the loop lasts; the worker is
        # joined before fit returns or raises, so no thread outlives it.
        with self.optimizer.worker():
            for epoch in range(1, epochs + 1):
                losses = [
                    self.train_on_batch(batch)
                    for batch in iterate_minibatches(inputs, batch_size, rng=self._rng)
                ]
                mean_loss = float(np.mean(losses)) if losses else float("nan")
                self.history.losses.append(mean_loss)
                if verbose:
                    print(f"[{self.name}] epoch {epoch}/{epochs} loss={mean_loss:.6f}")
                if best is None or mean_loss < best:
                    best, wait = mean_loss, 0
                elif patience is not None:
                    wait += 1
                    if wait >= patience:
                        break
        return self.history
