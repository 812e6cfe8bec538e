"""Model deployment onto HEC layers.

The paper trains all models on the cloud and then deploys one model per layer,
compressing (freezing + FP16-quantising) the ones destined for the Raspberry
Pi and Jetson TX2.  :func:`deploy_detectors` reproduces that step against the
simulated topology: it quantises where required, checks memory budgets, and
returns :class:`ModelDeployment` records that the HEC system uses to answer
"which detector runs at layer k, and how long does it take there?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import DeploymentError
from repro.detectors.base import AnomalyDetector
from repro.hec.topology import HECTopology
from repro.nn.quantization import QuantizationReport, quantize_model


@dataclass
class ModelDeployment:
    """A detector placed on an HEC layer.

    Attributes
    ----------
    layer:
        Layer index (0 = IoT device).
    detector:
        The deployed anomaly detector.
    device_name:
        Name of the hosting device.
    workload:
        Workload family used to look up calibrated execution times
        (``"univariate"`` or ``"multivariate"``).
    quantized:
        Whether the model was FP16-quantised before deployment.
    quantization:
        The quantisation report (``None`` when not quantised).
    execution_time_ms:
        Resolved execution time of one detection at this layer.
    """

    layer: int
    detector: AnomalyDetector
    device_name: str
    workload: str
    quantized: bool
    quantization: Optional[QuantizationReport]
    execution_time_ms: float

    @property
    def model_bytes(self) -> int:
        """Approximate in-memory model size after (optional) quantisation."""
        bytes_per_parameter = 2 if self.quantized else 4
        return self.detector.parameter_count() * bytes_per_parameter


def deploy_detectors(
    detectors: Sequence[AnomalyDetector],
    topology: HECTopology,
    workload: str,
    quantize_below_layer: Optional[int] = None,
) -> List[ModelDeployment]:
    """Deploy ``detectors[k]`` onto layer ``k`` of ``topology``.

    Parameters
    ----------
    detectors:
        One fitted detector per layer, bottom-up (exactly
        ``topology.n_layers`` of them).
    topology:
        The target hierarchy.
    workload:
        Workload family for calibrated execution-time lookup
        (``"univariate"`` or ``"multivariate"``).
    quantize_below_layer:
        Layers strictly below this index get FP16-quantised before deployment
        (the paper quantises the IoT and edge models, i.e. layers 0 and 1, so
        the default is ``K-1``).  Pass 0 to disable quantisation entirely.
    """
    if len(detectors) != topology.n_layers:
        raise DeploymentError(
            f"got {len(detectors)} detectors for a {topology.n_layers}-layer "
            "topology; one detector per layer is required"
        )
    if quantize_below_layer is None:
        quantize_below_layer = topology.n_layers - 1

    deployments: List[ModelDeployment] = []
    for layer, detector in enumerate(detectors):
        device = topology.device_at(layer)
        quantized = layer < quantize_below_layer
        deployment = ModelDeployment(
            layer=layer,
            detector=detector,
            device_name=device.name,
            workload=workload,
            quantized=quantized,
            quantization=quantize_model(detector.model) if quantized else None,
            execution_time_ms=device.execution_time_ms(
                workload, parameter_count=detector.parameter_count()
            ),
        )
        if not device.can_host(deployment.model_bytes, quantized=quantized):
            raise DeploymentError(
                f"model {detector.name!r} ({deployment.model_bytes / 1e6:.1f} MB, "
                f"quantized={quantized}) does not fit on device {device.name!r}"
            )
        deployments.append(deployment)
    return deployments
