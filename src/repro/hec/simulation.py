"""The HEC system facade used by the model-selection schemes.

:class:`HECSystem` ties the pieces together: a topology, the per-layer model
deployments and the delay model.  A caller submits a batch of windows for one
layer to :meth:`HECSystem.detect_batch` and gets the predictions, the
detector's confidence and the end-to-end delays back as aligned arrays.  That
one kernel is the only code that resolves failover, runs a detector and
computes delays; what a run did is read from those arrays, not from state
kept on the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import DeploymentError, SchedulingError, ShapeError
from repro.hec.delay import RESULT_PAYLOAD_BYTES, request_delay_ms, window_payload_bytes
from repro.hec.deployment import ModelDeployment
from repro.hec.topology import HECTopology


def _as_float64_batch(windows: np.ndarray) -> np.ndarray:
    """``windows`` as a float64 ndarray, skipping the copy when it already is.

    ``np.asarray`` is already a no-op for a C-contiguous float64 array, but
    the streaming fast path hands freshly stacked float64 batches straight
    back in — the explicit short-circuit documents (and tests pin) that the
    hot path never re-copies what the engine just built.
    """
    if (
        type(windows) is np.ndarray
        and windows.dtype == np.float64
        and windows.flags.c_contiguous
    ):
        return windows
    return np.asarray(windows, dtype=float)


@dataclass(frozen=True)
class BatchDetectionResult:
    """One batched detection outcome as aligned arrays.

    What :meth:`HECSystem.detect_batch` returns: exactly the per-window fields
    the schemes, the streaming metrics and the adaptation loop consume, with
    no per-window objects and nothing to tear back apart.
    """

    layer: int
    #: ``(n,)`` int64 binary predictions (1 = anomaly reported).
    predictions: np.ndarray
    #: ``(n,)`` float64 window anomaly scores (minimum logPD).
    anomaly_scores: np.ndarray
    #: ``(n,)`` float64 end-to-end delays.
    delays_ms: np.ndarray
    #: ``(n,)`` bool confidence-rule outcomes — ``None`` unless the caller
    #: asked for them (streaming and serving never do; the schemes log them
    #: and the Successive scheme escalates on them).
    confidents: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        """Number of windows in the batch."""
        return int(self.predictions.shape[0])


class HECSystem:
    """A deployed hierarchical edge computing system handling detection requests."""

    def __init__(
        self,
        topology: HECTopology,
        deployments: Sequence[ModelDeployment],
    ) -> None:
        self.topology = topology
        self._deployments: Dict[int, ModelDeployment] = {}
        for deployment in deployments:
            if deployment.layer in self._deployments:
                raise DeploymentError(f"layer {deployment.layer} has two deployments")
            self._deployments[deployment.layer] = deployment
        missing = [
            layer for layer in range(topology.n_layers) if layer not in self._deployments
        ]
        if missing:
            raise DeploymentError(f"no deployment for layers {missing}")
        #: Monotone counter bumped whenever the deployed model set changes
        #: (hot-swaps).  The serving front door stamps every response with it,
        #: which is how a drain-and-swap shows which model set answered.
        self.state_version = 0
        #: Failover policy under link outage: a request whose tier is behind a
        #: down link is redirected to the best reachable tier and charged
        #: ``retries * timeout`` of retry delay (see :meth:`configure_failover`).
        self._failover_retries = 1
        self._retry_timeout_ms = 200.0

    def bump_state_version(self) -> int:
        """Mark the deployed model set as changed; returns the new version."""
        self.state_version += 1
        return self.state_version

    # -- introspection -------------------------------------------------------------

    @property
    def n_layers(self) -> int:
        """Number of layers in the underlying topology."""
        return self.topology.n_layers

    def deployment_at(self, layer: int) -> ModelDeployment:
        """The model deployment at ``layer``."""
        try:
            return self._deployments[layer]
        except KeyError as exc:
            raise SchedulingError(f"no model deployed at layer {layer}") from exc

    def execution_time_ms(self, layer: int) -> float:
        """Execution time of one detection at ``layer``."""
        return self.deployment_at(layer).execution_time_ms

    def expected_delay_ms(self, layer: int, window_shape: tuple) -> float:
        """Analytic end-to-end delay of handling one window at ``layer``.

        This does not mutate link state; it uses pure propagation latency plus
        serialisation, and is what the reward function and the bandit use to
        reason about candidate actions without actually sending data.
        """
        payload = window_payload_bytes(window_shape)
        delay = self.execution_time_ms(layer)
        for link in self.topology.links_to(layer):
            delay += 2.0 * link.one_way_latency_ms
            delay += link.serialization_delay_ms(payload)
            delay += link.serialization_delay_ms(RESULT_PAYLOAD_BYTES)
        return float(delay)

    # -- failover ------------------------------------------------------------------

    def configure_failover(self, retries: int = 1, timeout_ms: float = 200.0) -> None:
        """Set the retry policy charged when a request is redirected off a
        tier behind a down link: ``retries * timeout_ms`` of extra delay per
        redirected request."""
        if retries < 1:
            raise SchedulingError(f"failover retries must be >= 1, got {retries}")
        if timeout_ms < 0:
            raise SchedulingError(f"retry timeout must be non-negative, got {timeout_ms}")
        self._failover_retries = int(retries)
        self._retry_timeout_ms = float(timeout_ms)

    def reachable_layer(self, layer: int) -> int:
        """The highest reachable layer on the path to ``layer``.

        Walks the uplink chain and stops below the first down link; a request
        for an unreachable tier is served by the best tier still connected to
        the device (layer 0 — the device itself — is always reachable).
        """
        effective = int(layer)
        for index, link in enumerate(self.topology.links_to(layer)):
            if link.is_down:
                effective = index
                break
        return effective

    def _resolve_layer(self, layer: int):
        """``(effective layer, retry penalty ms)`` for a request."""
        self.deployment_at(layer)  # unknown layers stay a scheduling error
        effective = self.reachable_layer(layer)
        if effective == layer:
            return int(layer), 0.0
        return effective, float(self._failover_retries * self._retry_timeout_ms)

    # -- request handling --------------------------------------------------------------

    def detect_batch(
        self,
        layer: int,
        windows: np.ndarray,
        with_confidence: bool = False,
        escalated_ms: Optional[np.ndarray] = None,
    ) -> BatchDetectionResult:
        """Handle a batch of detection requests at ``layer``.

        One detector forward for the whole ``(n, ...)`` batch, per-window
        delays as one array (computed in request order, so the per-transfer
        jitter draws on jittery links are those of ``n`` single requests).
        The result carries the layer that served the batch, which differs
        from ``layer`` when failover redirected it.

        ``with_confidence`` opts into the confidence-rule outcomes
        (``result.confidents``); streaming consumers never read them, so the
        default skips those detector passes entirely.  ``escalated_ms``
        optionally carries, per window, the delay already spent at lower
        layers (the Successive scheme's escalation); it is added to the
        reported delay.
        """
        layer, retry_ms = self._resolve_layer(layer)
        deployment = self.deployment_at(layer)
        windows = _as_float64_batch(windows)
        if windows.ndim < 2:
            raise ShapeError(
                f"expected a batch of windows (n, ...), got shape {windows.shape}"
            )
        n = windows.shape[0]
        if escalated_ms is not None:
            escalated_ms = np.asarray(escalated_ms, dtype=float)
            if escalated_ms.shape != (n,):
                raise ShapeError(
                    f"got escalated_ms of shape {escalated_ms.shape} for {n} windows"
                )
        if n == 0:
            return BatchDetectionResult(
                layer=int(layer),
                predictions=np.empty(0, dtype=np.int64),
                anomaly_scores=np.empty(0),
                delays_ms=np.empty(0),
                confidents=np.empty(0, dtype=bool) if with_confidence else None,
            )

        is_anomaly, confident, scores, _ = deployment.detector.detect_arrays(
            windows, with_confidence=with_confidence
        )
        predictions = is_anomaly.astype(np.int64)

        # (uplink + execution + downlink), then escalation, then retry: the
        # float order every recorded golden was produced with.
        delays = self._batch_delay_profile(layer, windows.shape[1:], n, deployment)
        if escalated_ms is not None:
            delays += escalated_ms
        if retry_ms:
            delays += retry_ms
        return BatchDetectionResult(
            layer=int(layer),
            predictions=predictions,
            confidents=confident,
            anomaly_scores=scores,
            delays_ms=delays,
        )

    #: The old name of :meth:`detect_batch`, kept only because the benchmark
    #: harness wraps both names; nothing in the package calls it.
    detect_batch_columnar = detect_batch

    def _batch_delay_profile(
        self,
        layer: int,
        window_shape: tuple,
        n: int,
        deployment: ModelDeployment,
    ) -> np.ndarray:
        """Per-request delays of ``n >= 1`` same-shaped requests.

        The first request may pay connection setup.  On jitter-free links the
        remaining ``n - 1`` replicate one steady-state delay; on jittery links
        every request is computed in order so the per-transfer RNG draws match
        one-at-a-time handling.
        """
        payload = window_payload_bytes(window_shape)
        links = self.topology.links_to(layer)

        def one_delay() -> float:
            return request_delay_ms(links, deployment.execution_time_ms, payload)

        delays = np.empty(n)
        delays[0] = one_delay()
        if n == 1:
            return delays
        if any(link.jitter_ms > 0.0 for link in links):
            delays[1:] = [one_delay() for _ in range(n - 1)]
            return delays
        delays[1:] = one_delay()
        return delays

    # -- checkpointing ---------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable mid-run state for the fleet checkpoint layer.

        Captures the state version, the failover policy and per-link state
        (keep-alive, health, jitter generator).  The deployed models are *not* captured here; the
        adaptation controller snapshots them (a frozen run redeploys the same
        detectors deterministically).
        """
        return {
            "state_version": int(self.state_version),
            "failover_retries": self._failover_retries,
            "retry_timeout_ms": self._retry_timeout_ms,
            "links": [link.snapshot() for link in self.topology.links],
        }

    def restore_state(self, snapshot: dict) -> None:
        """Restore the state captured by :meth:`snapshot_state`."""
        self.state_version = int(snapshot["state_version"])
        self._failover_retries = int(snapshot["failover_retries"])
        self._retry_timeout_ms = float(snapshot["retry_timeout_ms"])
        for link, link_snapshot in zip(self.topology.links, snapshot["links"]):
            link.restore(link_snapshot)

    # -- bookkeeping -----------------------------------------------------------------------

    def reset(self) -> None:
        """Clear the link state (keep-alive connections and injected faults)."""
        self.topology.reset_links()
