"""The softmax policy network.

A single-hidden-layer neural network (100 hidden units in the paper) that maps
a context vector to a categorical distribution over the K HEC layers.  The
network samples an action during training, selects the greedy (arg-max)
action at inference, and takes the REINFORCE gradient step
``theta <- theta + lr * advantage * grad log pi(a|z)`` through the existing
layer backward passes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.dense import Dense
from repro.nn.models.sequential import Sequential
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.utils.rng import RngLike, ensure_rng


class PolicyNetwork:
    """``pi_theta(a | z)``: a softmax policy over K actions given context ``z``."""

    def __init__(
        self,
        context_dim: int,
        n_actions: int = 3,
        hidden_units: int = 100,
        learning_rate: float = 1e-2,
        seed: RngLike = 0,
    ) -> None:
        if context_dim <= 0:
            raise ConfigurationError(f"context_dim must be positive, got {context_dim}")
        if n_actions < 2:
            raise ConfigurationError(f"n_actions must be at least 2, got {n_actions}")
        if hidden_units <= 0:
            raise ConfigurationError(f"hidden_units must be positive, got {hidden_units}")
        self.context_dim = int(context_dim)
        self.n_actions = int(n_actions)
        self.hidden_units = int(hidden_units)
        self._rng = ensure_rng(seed)

        self.model = Sequential(
            [
                Dense(self.hidden_units, activation="tanh", name="policy_hidden"),
                Dense(self.n_actions, activation="softmax", name="policy_output"),
            ],
            name="policy_network",
            seed=self._rng,
        )
        self.model.build(self.context_dim)
        self.optimizer: Optimizer = get_optimizer("adam", learning_rate=learning_rate)

    # -- inference -----------------------------------------------------------------

    def _check_context(self, context: np.ndarray) -> np.ndarray:
        context = np.asarray(context, dtype=float)
        if context.ndim == 1:
            context = context[None, :]
        if context.ndim != 2 or context.shape[1] != self.context_dim:
            raise ShapeError(
                f"context must have shape (n, {self.context_dim}), got {context.shape}"
            )
        return context

    def _check_one_context(self, context: np.ndarray) -> np.ndarray:
        """One context as a ``(1, context_dim)`` row; the learning methods
        draw and step on row 0 only, so more rows are refused, not ignored."""
        context = self._check_context(context)
        if context.shape[0] != 1:
            raise ShapeError(
                f"expected one context of shape ({self.context_dim},), got {context.shape}"
            )
        return context

    def action_probabilities(self, context: np.ndarray) -> np.ndarray:
        """``pi(a | z)`` for each row of ``context`` (shape ``(n, n_actions)``)."""
        context = self._check_context(context)
        return self.model.predict(context)

    def select_actions(self, contexts: np.ndarray) -> np.ndarray:
        """The greedy (arg-max) action for each row of ``contexts``."""
        return np.argmax(self.action_probabilities(contexts), axis=1)

    # -- learning --------------------------------------------------------------------

    def explore(self, context: np.ndarray) -> Tuple[int, np.ndarray]:
        """Sample an action for one context from a *training* forward pass.

        Returns ``(action, probabilities)`` with ``probabilities`` of shape
        ``(1, n_actions)``; the action is one categorical draw from the
        policy's generator.  Pass both to :meth:`policy_gradient_step`
        (``probabilities=``) and the update backpropagates through this
        forward instead of running its own — the REINFORCE trainer's one
        forward per update.
        """
        probabilities = self.model.forward(self._check_one_context(context), training=True)
        return int(self._rng.choice(self.n_actions, p=probabilities[0])), probabilities

    def policy_gradient_step(
        self,
        context: np.ndarray,
        action: int,
        advantage: float,
        entropy_weight: float = 0.0,
        probabilities: Optional[np.ndarray] = None,
    ) -> float:
        """One REINFORCE update for a single (context, action, advantage) triple.

        Minimises ``-advantage * log pi(a|z) - entropy_weight * H(pi(.|z))``.
        Returns the log-probability of the chosen action (useful for logging).
        ``probabilities`` is what :meth:`explore` returned for this context, if
        it was the last forward pass; otherwise the step runs the forward.
        """
        context = self._check_one_context(context)
        if not 0 <= action < self.n_actions:
            raise ConfigurationError(
                f"action must lie in [0, {self.n_actions}), got {action}"
            )
        if probabilities is None:
            probabilities = self.model.forward(context, training=True)
        probability = float(np.clip(probabilities[0, action], 1e-12, 1.0))

        # d/dp of (-advantage * log p_a): only the chosen action's probability
        # appears in the objective, the softmax backward spreads it correctly.
        grad = np.zeros_like(probabilities)
        grad[0, action] = -float(advantage) / probability
        if entropy_weight > 0.0:
            # Entropy H = -sum p log p; dH/dp_i = -(log p_i + 1).  We *add*
            # entropy to the objective, i.e. subtract its gradient from the loss.
            safe = np.clip(probabilities, 1e-12, 1.0)
            grad += entropy_weight * (np.log(safe) + 1.0)
        self.model.backward(grad)
        self.optimizer.step(self.model.parameters_and_gradients())
        return float(np.log(probability))

    #: The old name of :meth:`policy_gradient_step`, kept only because the
    #: benchmark harness wraps both names; nothing in the package calls it.
    policy_gradient_step_batch = policy_gradient_step

    # -- introspection ------------------------------------------------------------------

    def parameter_count(self) -> int:
        """Number of trainable parameters of the policy network."""
        return self.model.parameter_count()

    def get_weights(self) -> dict:
        """Policy-network weights (delegates to the underlying Sequential model)."""
        return self.model.get_weights()

    def set_weights(self, weights: dict) -> None:
        """Load policy-network weights."""
        self.model.set_weights(weights)

    def get_config(self) -> dict:
        """JSON-serialisable description of the policy network."""
        return {
            "type": "PolicyNetwork",
            "context_dim": self.context_dim,
            "n_actions": self.n_actions,
            "hidden_units": self.hidden_units,
        }
