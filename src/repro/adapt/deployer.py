"""Hot-swap deployment: promoted checkpoints replacing live detectors.

:class:`HotSwapDeployer` performs the paper's deployment step *online*: a
gated candidate is FP16-quantised when its target tier's original deployment
was quantised (the IoT/edge tiers), committed to the
:class:`~repro.adapt.registry.ModelRegistry`, promoted, and swapped into the
running :class:`~repro.hec.simulation.HECSystem` by replacing the tier's
:class:`~repro.hec.deployment.ModelDeployment` detector reference.  The swap
is a single attribute rebind executed between event-clock ticks (the engine
only calls the deployer at tick boundaries), so no in-flight batch ever sees
a half-updated model — the streaming analogue of an atomic blue/green cut.
"""

from __future__ import annotations

from typing import Optional

from repro.adapt.events import SwapEvent
from repro.adapt.registry import ModelRegistry
from repro.detectors.base import AnomalyDetector
from repro.exceptions import ConfigurationError
from repro.hec.simulation import HECSystem
from repro.nn.quantization import QuantizationReport, quantize_model


class HotSwapDeployer:
    """Commit, promote and atomically deploy candidate detectors."""

    def __init__(
        self,
        system: HECSystem,
        registry: ModelRegistry,
        quantize_swapped: bool = True,
    ) -> None:
        self.system = system
        self.registry = registry
        self.quantize_swapped = bool(quantize_swapped)

    def register_incumbents(self, tier_names) -> None:
        """Commit the initially deployed detectors as root versions and make
        each current unless it already is.

        Gives every tier a rollback target and every later candidate a parent,
        so lineage is complete from the first swap on.  A run against a
        registry an earlier run left behind starts from its own roots too,
        never from that run's last swap.
        """
        for layer, tier in enumerate(tier_names):
            deployment = self.system.deployment_at(layer)
            meta = self.registry.commit(
                deployment.detector,
                tier=tier,
                layer=layer,
                parent=None,
                quantization=deployment.quantization,
            )
            if self.registry.current(tier) != meta.version:
                self.registry.promote(meta.version, tier)

    def prepare_candidate(
        self, layer: int, candidate: AnomalyDetector
    ) -> Optional[QuantizationReport]:
        """Put ``candidate`` into its deployable form for ``layer``.

        FP16-quantises the candidate in place when the tier's original
        deployment was quantised (the paper quantises below the cloud).
        Called *before* the shadow gate, so the gate scores exactly the model
        that would serve traffic.  Returns the quantisation report (``None``
        when the tier deploys at full precision).
        """
        if self.quantize_swapped and self.system.deployment_at(layer).quantized:
            return quantize_model(candidate.model)
        return None

    def swap(
        self,
        tick: int,
        layer: int,
        tier: str,
        candidate: AnomalyDetector,
        quantization: Optional[QuantizationReport] = None,
        training_window: Optional[tuple] = None,
        n_train_windows: int = 0,
    ) -> SwapEvent:
        """Deploy ``candidate`` at ``layer``; returns the recorded swap event.

        The candidate must already be in its deployable form (see
        :meth:`prepare_candidate` — ``quantization`` is that call's report).
        It is committed with full lineage metadata, promoted, and swapped
        into the live system.
        """
        deployment = self.system.deployment_at(layer)
        incumbent_version = self.registry.current(tier)
        if incumbent_version is None:
            raise ConfigurationError(
                f"tier {tier!r} has no promoted incumbent; call "
                "register_incumbents() before swapping"
            )

        meta = self.registry.commit(
            candidate,
            tier=tier,
            layer=layer,
            parent=incumbent_version,
            training_window=training_window,
            n_train_windows=n_train_windows,
            quantization=quantization,
        )
        self.registry.promote(meta.version, tier)

        # The atomic cut: one attribute rebind at a tick boundary.  The
        # deployment's quantisation bookkeeping follows the candidate's
        # actual form so the record never describes a replaced model.
        deployment.detector = candidate
        deployment.quantized = quantization is not None
        deployment.quantization = quantization
        # Invalidate any snapshot keyed on the pre-swap model set (the
        # sharded engine's forked worker pools hold copy-on-write state).
        self.system.bump_state_version()
        return SwapEvent(
            tick=int(tick),
            layer=int(layer),
            tier=str(tier),
            from_version=incumbent_version,
            to_version=meta.version,
            quantized=quantization is not None,
        )
