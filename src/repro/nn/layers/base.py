"""Layer base class.

A layer owns its parameters (as named float arrays) and one gradient buffer per
parameter, caches whatever a training forward pass leaves for ``backward``, and
implements ``backward`` to propagate gradients and write the parameter
gradients of that pass into its buffers.  Layers are deliberately stateful in the same
way Keras layers are: ``build`` is called lazily on the first forward pass
once the input dimensionality is known.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import NotFittedError
from repro.utils.rng import RngLike, ensure_rng

#: Rows per BLAS call of an inference matmul (see :func:`batch_invariant_matmul`).
ROW_BLOCK = 8


def batch_invariant_matmul(inputs: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``inputs @ kernel`` whose every row has the same bits in any batch.

    A BLAS library picks its code path from the shape of the whole call: a
    lone row goes to gemv, a row count the micro-tile does not divide ends
    in an edge tile, and OpenBLAS's small-matrix kernel (AVX-512 hosts)
    gives way to the blocked kernel once ``rows x columns x depth`` passes
    its threshold.  Each path rounds differently.  So the rows are
    zero-padded to a multiple of :data:`ROW_BLOCK` (at least one block) and
    multiplied as a stack of ``ROW_BLOCK``-row matmuls: every BLAS call has
    the same shape, whatever the batch, and the padding is sliced off.
    Inference only; training keeps the plain matmul its gradients were
    pinned with.
    """
    n, depth = inputs.shape
    rows = max(ROW_BLOCK, -(-n // ROW_BLOCK) * ROW_BLOCK)
    if rows != n:
        padded = np.zeros((rows, depth))
        padded[:n] = inputs
        inputs = padded
    product = np.matmul(inputs.reshape(-1, ROW_BLOCK, depth), kernel)
    return product.reshape(rows, kernel.shape[1])[:n]


class Layer:
    """Base class for all layers.

    Subclasses must implement :meth:`build`, :meth:`forward` and
    :meth:`backward`, and may override :meth:`regularization_penalty` when
    they carry kernel regularisers.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__.lower()
        self.built = False
        self.trainable = True
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self._pairs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._rng = ensure_rng(None)

    # -- lifecycle ---------------------------------------------------------

    def build(self, input_dim: int) -> None:
        """Create parameters given the size of the last input axis."""
        raise NotImplementedError

    def ensure_built(self, input_dim: int, rng: Optional[np.random.Generator] = None) -> None:
        """Build the layer on first use; subsequent calls are no-ops."""
        if not self.built:
            if rng is not None:
                self._rng = rng
            self.build(int(input_dim))
            self.built = True

    def set_rng(self, seed: RngLike) -> None:
        """Set the RNG used for parameter initialisation and stochastic ops."""
        self._rng = ensure_rng(seed)

    # -- computation -------------------------------------------------------

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the layer on ``inputs`` and cache intermediates for backward."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` and return the gradient w.r.t. the input.

        This pass's parameter gradients are *written* into the buffers of
        :meth:`gradient_buffers`, replacing the previous pass's.
        """
        raise NotImplementedError

    # -- parameters --------------------------------------------------------

    def gradient_buffers(self) -> Dict[str, np.ndarray]:
        """``self.grads``: one buffer per parameter, allocated on first use."""
        if len(self.grads) != len(self.params):
            self.grads.update((key, np.zeros_like(value)) for key, value in self.params.items())
        return self.grads

    def parameters_and_gradients(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Pairs of (parameter, gradient buffer) for the optimiser, resolved once."""
        if not self.built:
            raise NotFittedError(f"layer {self.name!r} has not been built yet")
        if self._pairs is None:
            grads = self.gradient_buffers()
            self._pairs = [(self.params[key], grads[key]) for key in sorted(self.params)]
        return self._pairs

    def release_training_buffers(self) -> None:
        """Free the gradient buffers (a training forward's caches go with the
        next inference forward); the next ``backward`` allocates them again."""
        self.grads.clear()
        self._pairs = None

    def parameter_count(self) -> int:
        """Total number of scalar parameters in the layer."""
        return int(sum(p.size for p in self.params.values()))

    def get_weights(self) -> Dict[str, np.ndarray]:
        """Copies of all parameter arrays keyed by name."""
        return {key: value.copy() for key, value in self.params.items()}

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        """Load parameter values (shapes must match the built layer)."""
        if not self.built:
            raise NotFittedError(f"layer {self.name!r} must be built before loading weights")
        for key, value in weights.items():
            if key not in self.params:
                raise KeyError(f"layer {self.name!r} has no parameter {key!r}")
            value = np.asarray(value, dtype=float)
            if value.shape != self.params[key].shape:
                raise ValueError(
                    f"parameter {key!r} expects shape {self.params[key].shape}, got {value.shape}"
                )
            self.params[key][...] = value

    # -- misc ---------------------------------------------------------------

    def regularization_penalty(self) -> float:
        """Scalar regularisation penalty contributed by this layer (default 0)."""
        return 0.0

    def get_config(self) -> dict:
        """JSON-serialisable configuration (architecture only, no weights)."""
        return {"type": type(self).__name__, "name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, built={self.built})"
