"""Device profiles for the HEC layers.

A :class:`DeviceProfile` models the compute capability of a node in the
hierarchy.  Execution time of a detection model on a device is resolved in
two steps:

1. if the device has a *calibrated* execution time for the model (the values
   the paper measured on its testbed, Table I last row), that value is used;
2. otherwise a generic estimate is derived from the model's parameter count
   and the device's effective throughput (parameters evaluated per
   millisecond), which keeps new architectures usable in the simulator.

The three default profiles mirror the paper's testbed: a Raspberry Pi 3 as the
IoT device, an NVIDIA Jetson TX2 as the edge server and a multi-GPU Devbox as
the cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive


@dataclass
class DeviceProfile:
    """Compute profile of one HEC node.

    Attributes
    ----------
    name:
        Human-readable device name.
    tier:
        Tier this device usually occupies (``"iot"``, ``"edge"`` or ``"cloud"``).
    throughput_params_per_ms:
        Effective model-evaluation throughput used by the generic execution
        model (higher is faster).
    memory_mb:
        Available memory for model deployment, in megabytes; deployment
        checks a model's footprint against this budget.
    calibrated_execution_ms:
        Measured per-model execution times keyed by workload name (e.g.
        ``"univariate"`` / ``"multivariate"`` or a concrete model name).
    supports_fp32:
        Whether the device can host uncompressed FP32 models.  The paper
        quantises models to FP16 before deploying on the Pi and the Jetson;
        profiles with ``supports_fp32=False`` require quantised deployments.
    """

    name: str
    tier: str
    throughput_params_per_ms: float
    memory_mb: float
    calibrated_execution_ms: Dict[str, float] = field(default_factory=dict)
    supports_fp32: bool = True

    def __post_init__(self) -> None:
        check_positive(self.throughput_params_per_ms, "throughput_params_per_ms")
        check_positive(self.memory_mb, "memory_mb")
        for key, value in self.calibrated_execution_ms.items():
            if value <= 0:
                raise ConfigurationError(
                    f"calibrated execution time for {key!r} must be positive, got {value}"
                )

    # -- execution-time model ---------------------------------------------------

    def execution_time_ms(self, workload: str, parameter_count: Optional[int] = None) -> float:
        """Execution time of ``workload`` on this device.

        ``workload`` is looked up in the calibration table first; when absent,
        ``parameter_count`` must be provided and the generic throughput model
        is used.
        """
        if workload in self.calibrated_execution_ms:
            return float(self.calibrated_execution_ms[workload])
        if parameter_count is None:
            raise ConfigurationError(
                f"device {self.name!r} has no calibrated time for workload {workload!r} "
                "and no parameter_count was provided for the generic model"
            )
        check_positive(parameter_count, "parameter_count")
        return float(parameter_count) / self.throughput_params_per_ms

    def can_host(self, model_bytes: int, quantized: bool) -> bool:
        """Whether a model of ``model_bytes`` (already quantised or not) fits this device."""
        if not self.supports_fp32 and not quantized:
            return False
        return model_bytes <= self.memory_mb * 1024 * 1024


def _paper_calibrations(univariate_ms: float, multivariate_ms: float) -> Dict[str, float]:
    """Calibration table entries for the two workload families of Table I."""
    return {"univariate": univariate_ms, "multivariate": multivariate_ms}


#: Raspberry Pi 3 (IoT layer).  Execution times from Table I: 12.4 ms for the
#: univariate AE-IoT model and 591.0 ms for LSTM-seq2seq-IoT.
RASPBERRY_PI_3 = DeviceProfile(
    name="Raspberry Pi 3",
    tier="iot",
    throughput_params_per_ms=271_017 / 12.4,
    memory_mb=1024.0,
    calibrated_execution_ms=_paper_calibrations(12.4, 591.0),
    supports_fp32=False,
)

#: NVIDIA Jetson TX2 (edge layer).  7.4 ms univariate, 417.3 ms multivariate.
JETSON_TX2 = DeviceProfile(
    name="NVIDIA Jetson TX2",
    tier="edge",
    throughput_params_per_ms=949_468 / 7.4,
    memory_mb=8192.0,
    calibrated_execution_ms=_paper_calibrations(7.4, 417.3),
    supports_fp32=False,
)

#: NVIDIA Devbox with 4x Titan X (cloud layer).  4.5 ms univariate, 232.3 ms multivariate.
GPU_DEVBOX = DeviceProfile(
    name="NVIDIA Devbox (4x Titan X)",
    tier="cloud",
    throughput_params_per_ms=1_085_077 / 4.5,
    memory_mb=65536.0,
    calibrated_execution_ms=_paper_calibrations(4.5, 232.3),
    supports_fp32=True,
)
