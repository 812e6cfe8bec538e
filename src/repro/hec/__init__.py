"""Simulated hierarchical edge computing (HEC) substrate.

The paper evaluates on a physical three-layer testbed (Raspberry Pi 3 →
Jetson TX2 → GPU Devbox) whose WAN latencies are shaped with ``tc`` and whose
services communicate over keep-alive TCP sockets.  This subpackage provides a
simulated equivalent:

* :mod:`repro.hec.device` — device profiles with calibrated per-model
  execution times (Table I) and a generic compute model for other workloads;
* :mod:`repro.hec.network` — links with one-way latency, bandwidth and
  optional jitter, plus the keep-alive connection-establishment model;
* :mod:`repro.hec.topology` — the K-layer hierarchy wiring devices and links;
* :mod:`repro.hec.deployment` — placing (optionally quantised) detectors on
  layers;
* :mod:`repro.hec.delay` — the end-to-end delay of a detection request
  handled at a given layer;
* :mod:`repro.hec.simulation` — the HEC system facade used by the selection
  schemes, the fleet engine and the ingest server (submit a batch of windows
  for one layer, get back predictions, confidence and delays).
"""

from repro.hec.device import DeviceProfile, RASPBERRY_PI_3, JETSON_TX2, GPU_DEVBOX
from repro.hec.network import NetworkLink
from repro.hec.topology import HECTopology, build_three_layer_topology
from repro.hec.deployment import ModelDeployment, deploy_detectors
from repro.hec.simulation import HECSystem

__all__ = [
    "DeviceProfile",
    "RASPBERRY_PI_3",
    "JETSON_TX2",
    "GPU_DEVBOX",
    "NetworkLink",
    "HECTopology",
    "build_three_layer_topology",
    "ModelDeployment",
    "deploy_detectors",
    "HECSystem",
]
