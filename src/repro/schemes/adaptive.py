"""The Adaptive scheme: contextual-bandit model selection.

For each window the scheme extracts the contextual features on the IoT device,
runs the (small) policy network, and sends the window directly to the selected
layer.  The policy network is trained beforehand by
:class:`~repro.bandit.reinforce.ReinforceTrainer`; at evaluation time the
scheme uses the greedy (arg-max) action, as the paper does once training has
converged.

The scheme also accounts for the on-device overhead of context extraction and
the policy forward pass, which is small but not zero; it is folded into the
reported delay as ``policy_overhead_ms`` (0 by default to match the paper's
delay accounting, which ignores it).
"""

from __future__ import annotations

import numpy as np

from repro.bandit.context import ContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.exceptions import ConfigurationError
from repro.hec.simulation import HECSystem
from repro.schemes.base import SchemeRun, SelectionScheme
from repro.utils.validation import check_non_negative


class AdaptiveScheme(SelectionScheme):
    """Select the HEC layer per window with a trained policy network."""

    name = "Our Method"

    def __init__(
        self,
        system: HECSystem,
        policy: PolicyNetwork,
        context_extractor: ContextExtractor,
        policy_overhead_ms: float = 0.0,
    ) -> None:
        super().__init__(system)
        if policy.n_actions != system.n_layers:
            raise ConfigurationError(
                f"policy has {policy.n_actions} actions but the HEC system has "
                f"{system.n_layers} layers"
            )
        self.policy = policy
        self.context_extractor = context_extractor
        self.policy_overhead_ms = check_non_negative(policy_overhead_ms, "policy_overhead_ms")

    def run_batch(self, windows: np.ndarray) -> SchemeRun:
        """One context extraction, one policy forward, then one batched
        detector call per selected layer.

        Windows are grouped by chosen action — groups in order of first
        arrival, so each link's connection setup is paid by the first window
        to cross it — detected per group, and each group's results written
        back at its windows' positions.  On jittery links the windows go
        through one at a time instead (grouping would reorder the
        per-transfer jitter draws).
        """
        windows = np.asarray(windows, dtype=float)
        n = windows.shape[0]
        if self._must_step(n):
            return self._step(windows)
        predictions = np.empty(n, dtype=np.int64)
        layers = np.empty(n, dtype=np.int64)
        delays = np.empty(n)
        confident = np.empty(n, dtype=bool)
        if n == 0:
            return SchemeRun.one_attempt(predictions, layers, delays, confident)
        contexts = self.context_extractor.extract(windows)
        actions = self.policy.select_actions(contexts)

        _, first_arrival = np.unique(actions, return_index=True)
        for action in actions[np.sort(first_arrival)]:
            indices = np.flatnonzero(actions == action)
            result = self.system.detect_batch(
                int(action), windows[indices], with_confidence=True
            )
            predictions[indices] = result.predictions
            layers[indices] = result.layer
            delays[indices] = result.delays_ms + self.policy_overhead_ms
            confident[indices] = result.confidents
        return SchemeRun.one_attempt(predictions, layers, delays, confident)
