"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one complete experiment — dataset,
detector per tier, topology, deployment and policy training — as
a tree of frozen dataclasses.  Specs are pure data: they can be compared,
serialised to/from JSON (via :mod:`repro.utils.serialization`), overridden
with dotted ``key=value`` paths (the CLI's ``--set``) and handed to an
:class:`~repro.experiments.runner.ExperimentRunner` to execute.

The same spec tree expresses the paper's two original tracks *and* scenarios
beyond them: deeper hierarchies (any number of tiers, each with its own
device/link profile) and mixed detector families (e.g. autoencoders on the
lower tiers with a seq2seq model on the cloud).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.adapt.spec import AdaptSpec
from repro.exceptions import ConfigurationError
from repro.fleet.faults import FaultSpec
from repro.fleet.spec import FleetSpec
from repro.obs.spec import ObsSpec
from repro.serving.spec import ServingSpec
from repro.utils.serialization import JsonRecord

#: Dataset sources understood by the runner's ``prepare_data`` stage.
DATA_SOURCES = ("power", "mhealth")

#: Detector families understood by the runner's ``fit_detectors`` stage.
DETECTOR_FAMILIES = ("autoencoder", "seq2seq")

#: Context extractors understood by the runner's ``train_policy`` stage.
CONTEXT_KINDS = ("daily-stats", "iot-encoder")

#: Seed offsets applied by :meth:`DataSpec.reseed`: the data seed of each
#: source trails the master seed by a fixed amount.
_DATA_SEED_OFFSETS = {"power": 7, "mhealth": 11}


def _check_choice(value: str, choices: Tuple[str, ...], what: str) -> None:
    if value not in choices:
        raise ConfigurationError(f"{what} must be one of {choices}, got {value!r}")


def _freeze(value):
    """Recursively convert lists into tuples (JSON round-trip normalisation)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class DataSpec(JsonRecord):
    """Dataset generation, windowing and split fractions.

    ``source`` selects the generator; fields that do not apply to the chosen
    source are ignored.  Optional fields left at ``None`` fall back to the
    generator's own defaults.
    """

    source: str = "power"
    seed: Optional[int] = 7
    # power-specific
    weeks: int = 40
    samples_per_day: int = 24
    anomalous_day_fraction: float = 0.06
    weekend_level: Optional[float] = None
    # mhealth-specific
    n_subjects: int = 3
    seconds_per_activity: float = 8.0
    sampling_rate_hz: float = 25.0
    normal_activity: Optional[Union[str, int]] = None
    subject_variability: Optional[float] = None
    window_size: int = 32
    stride: int = 16
    # shared
    noise_std: Optional[float] = None
    # splits (anomaly-detection split + policy-training split)
    normal_train_fraction: float = 0.7
    anomaly_test_fraction: float = 1.0
    policy_normal_fraction: float = 0.3
    policy_anomaly_fraction: float = 1.0

    def __post_init__(self) -> None:
        _check_choice(self.source, DATA_SOURCES, "data.source")

    def reseed(self, seed: int) -> "DataSpec":
        """The data seed derived from a new master ``seed`` (per-source offset)."""
        return replace(self, seed=seed + _DATA_SEED_OFFSETS[self.source])


@dataclass(frozen=True)
class DetectorSpec(JsonRecord):
    """One detector (family + architecture + training knobs) for one tier.

    The tier sets the paper architecture these fields override, and the
    window shape sets the input size and layout.
    """

    family: str = "autoencoder"
    #: Autoencoder hidden-layer sizes; ``None`` uses the tier's paper-scale default.
    hidden_sizes: Optional[Tuple[int, ...]] = None
    #: Seq2seq encoder units; ``None`` uses the tier's paper-scale default.
    units: Optional[int] = None
    inference_mode: str = "autoregressive"
    dropout_rate: float = 0.3
    #: Detector display name; ``None`` derives one from the family and tier.
    name: Optional[str] = None
    # training
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        _check_choice(self.family, DETECTOR_FAMILIES, "detector.family")
        if self.hidden_sizes is not None:
            object.__setattr__(self, "hidden_sizes", _freeze(self.hidden_sizes))


@dataclass(frozen=True)
class DeviceSpec(JsonRecord):
    """A serialisable :class:`~repro.hec.device.DeviceProfile`."""

    name: str
    tier: str = "edge"
    throughput_params_per_ms: float = 1e5
    memory_mb: float = 4096.0
    supports_fp32: bool = True
    #: Calibrated execution times as ``(workload, milliseconds)`` pairs.
    calibrated_execution_ms: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        calibrated = self.calibrated_execution_ms
        if isinstance(calibrated, Mapping):
            calibrated = tuple(sorted(calibrated.items()))
        object.__setattr__(
            self,
            "calibrated_execution_ms",
            tuple((str(k), float(v)) for k, v in _freeze(calibrated)),
        )

    def build(self):
        """The concrete :class:`~repro.hec.device.DeviceProfile`."""
        from repro.hec.device import DeviceProfile

        return DeviceProfile(
            name=self.name,
            tier=self.tier,
            throughput_params_per_ms=self.throughput_params_per_ms,
            memory_mb=self.memory_mb,
            calibrated_execution_ms=dict(self.calibrated_execution_ms),
            supports_fp32=self.supports_fp32,
        )


@dataclass(frozen=True)
class LinkSpec(JsonRecord):
    """A serialisable :class:`~repro.hec.network.NetworkLink`."""

    name: str
    one_way_latency_ms: float
    bandwidth_mbps: float = 1000.0
    jitter_ms: float = 0.0
    connection_setup_ms: float = 0.0

    def build(self):
        """The concrete :class:`~repro.hec.network.NetworkLink`."""
        from repro.hec.network import NetworkLink

        return NetworkLink(
            self.name,
            one_way_latency_ms=self.one_way_latency_ms,
            bandwidth_mbps=self.bandwidth_mbps,
            jitter_ms=self.jitter_ms,
            connection_setup_ms=self.connection_setup_ms,
        )


@dataclass(frozen=True)
class TopologySpec(JsonRecord):
    """The HEC hierarchy: the paper testbed, or explicit device/link profiles.

    No ``devices`` builds the paper's Pi 3 -> Jetson TX2 -> Devbox testbed;
    given ``devices`` build exactly those, joined by one link fewer.
    """

    tier_names: Tuple[str, ...] = ("iot", "edge", "cloud")
    devices: Tuple[DeviceSpec, ...] = ()
    links: Tuple[LinkSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tier_names", tuple(str(t) for t in self.tier_names))
        object.__setattr__(self, "devices", _freeze(self.devices))
        object.__setattr__(self, "links", _freeze(self.links))
        if not self.devices and self.links:
            raise ConfigurationError(
                f"topology has {len(self.links)} links but no devices; links "
                "need explicit devices (no devices builds the paper testbed)"
            )
        if self.devices and len(self.links) != len(self.devices) - 1:
            raise ConfigurationError(
                f"a {len(self.devices)}-layer topology needs {len(self.devices) - 1} "
                f"links, got {len(self.links)}"
            )
        if len(set(self.tier_names)) != len(self.tier_names):
            raise ConfigurationError(f"tier names must be unique, got {self.tier_names}")
        if len(self.tier_names) != self.n_layers:
            raise ConfigurationError(
                f"{self.n_layers}-layer topology needs {self.n_layers} tier names, "
                f"got {self.tier_names}"
            )

    @property
    def n_layers(self) -> int:
        """Number of layers this topology will have once built."""
        return len(self.devices) or 3

    def build(self):
        """The concrete :class:`~repro.hec.topology.HECTopology`."""
        from repro.hec.topology import HECTopology, build_three_layer_topology

        if not self.devices:
            return build_three_layer_topology()
        return HECTopology(
            devices=[device.build() for device in self.devices],
            links=[link.build() for link in self.links],
        )


@dataclass(frozen=True)
class DeploymentSpec(JsonRecord):
    """How detectors are placed on the topology."""

    #: Calibration-table key used to resolve execution times (falls back to the
    #: generic parameter-count model for unknown workloads).
    workload: str = "univariate"
    #: Layers strictly below this index are FP16-quantised; ``None`` = ``K - 1``
    #: (the paper quantises everything below the cloud).
    quantize_below_layer: Optional[int] = None


@dataclass(frozen=True)
class PolicySpec(JsonRecord):
    """Bandit policy network, its REINFORCE training and the reward."""

    hidden_units: int = 100
    episodes: int = 40
    learning_rate: float = 5e-3
    entropy_weight: float = 0.01
    #: Delay-cost coefficient of the reward function (Eq. 1).
    alpha: float = 0.0005
    #: ``"daily-stats"`` = per-day statistics of the window (univariate);
    #: ``"iot-encoder"`` = the layer-0 seq2seq encoder state (multivariate).
    context: str = "daily-stats"
    context_segments: int = 7

    def __post_init__(self) -> None:
        _check_choice(self.context, CONTEXT_KINDS, "policy.context")


@dataclass(frozen=True)
class ExperimentSpec(JsonRecord):
    """A complete declarative experiment."""

    name: str
    data: DataSpec = field(default_factory=DataSpec)
    detectors: Tuple[DetectorSpec, ...] = ()
    #: Label used in table rows and reports; defaults to ``name``.
    dataset_name: Optional[str] = None
    description: str = ""
    seed: int = 0
    topology: TopologySpec = field(default_factory=TopologySpec)
    deployment: DeploymentSpec = field(default_factory=DeploymentSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    #: Streaming fleet workload for the runner's ``stream`` stage; ``None``
    #: for purely offline experiments (see :mod:`repro.fleet`).
    fleet: Optional[FleetSpec] = None
    #: Model-lifecycle loop (drift monitoring, online retraining, hot-swap
    #: deployment) attached to the streaming run; ``None`` streams with the
    #: detectors frozen (see :mod:`repro.adapt`).
    adapt: Optional[AdaptSpec] = None
    #: Deterministic fault-injection schedule for the streaming run; ``None``
    #: streams fault-free (see :mod:`repro.fleet.faults`).
    faults: Optional[FaultSpec] = None
    #: Online serving front door (micro-batching, admission control, SLO) for
    #: the runner's ``serve`` stage; ``None`` for experiments that never
    #: serve live traffic (see :mod:`repro.serving`).
    serve: Optional[ServingSpec] = None
    #: Telemetry configuration (metrics + trace export directory); ``None``
    #: runs without the observability layer (see :mod:`repro.obs`).
    obs: Optional[ObsSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("an experiment spec needs a non-empty name")
        object.__setattr__(self, "detectors", _freeze(self.detectors))
        if not self.detectors:
            raise ConfigurationError("an experiment spec needs at least one detector")
        if len(self.detectors) != self.topology.n_layers:
            raise ConfigurationError(
                f"spec {self.name!r} has {len(self.detectors)} detectors for a "
                f"{self.topology.n_layers}-layer topology; one detector per layer is required"
            )

    # -- derived -----------------------------------------------------------------

    @property
    def dataset_label(self) -> str:
        """The dataset label used in table rows and report file names."""
        return self.dataset_name or self.name

    def with_seed(self, seed: int) -> "ExperimentSpec":
        """A copy with a new master seed (the data seed follows at its offset)."""
        return replace(self, seed=seed, data=self.data.reseed(seed))


# -- dotted overrides (the CLI's --set) ------------------------------------------


def _coerce_override(raw: Any, current: Any, key: str) -> Any:
    """Coerce a raw (usually string) override to the type of ``current``."""
    if not isinstance(raw, str):
        return raw
    if isinstance(current, bool):
        lowered = raw.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"cannot parse {raw!r} as a boolean for {key!r}")
    try:
        if isinstance(current, int) and not isinstance(current, bool):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"cannot parse {raw!r} as {type(current).__name__} for {key!r}"
        ) from exc
    if isinstance(current, list):
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"cannot parse {raw!r} as a JSON list for {key!r}"
            ) from exc
        if not isinstance(parsed, list):
            raise ConfigurationError(f"{key!r} expects a list, got {raw!r}")
        return parsed
    if current is None:
        # Unknown target type: accept JSON literals, fall back to the raw string.
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            return raw
    return raw


def _descend(node: Any, segment: str, path: str):
    """One step of a dotted-path walk through dicts and lists."""
    if isinstance(node, dict):
        if segment not in node:
            raise ConfigurationError(
                f"unknown key {path!r}; valid keys here: {sorted(node)}"
            )
        return node[segment]
    if isinstance(node, list):
        try:
            index = int(segment)
        except ValueError as exc:
            raise ConfigurationError(
                f"{path!r}: expected a list index, got {segment!r}"
            ) from exc
        if not 0 <= index < len(node):
            raise ConfigurationError(
                f"{path!r}: index {index} out of range (list has {len(node)} items)"
            )
        return node[index]
    raise ConfigurationError(f"{path!r} does not address a nested value")


def apply_overrides(spec: ExperimentSpec, overrides: Mapping[str, Any]) -> ExperimentSpec:
    """A copy of ``spec`` with dotted-path overrides applied.

    ``overrides`` maps dotted keys (e.g. ``"data.weeks"``, ``"detectors.0.epochs"``)
    to values; string values are coerced to the type of the value they replace.
    Unknown keys and uncoercible values raise :class:`ConfigurationError`.
    """
    payload = spec.to_dict()
    for key, raw in overrides.items():
        segments = [s for s in str(key).split(".") if s]
        if not segments:
            raise ConfigurationError(f"empty override key {key!r}")
        if segments[0] == "obs" and len(segments) > 1 and payload.get("obs") is None:
            # Unlike the other optional nodes, ``obs`` has usable defaults for
            # every field, so ``--set obs.dir=...`` on an untelemetered spec
            # materialises the node instead of erroring on the null.
            payload["obs"] = ObsSpec().to_dict()
        node = payload
        walked = []
        for segment in segments[:-1]:
            walked.append(segment)
            node = _descend(node, segment, ".".join(walked))
        last = segments[-1]
        current = _descend(node, last, key)
        value = _coerce_override(raw, current, key)
        if isinstance(node, dict):
            node[last] = value
        else:
            node[int(last)] = value
    return ExperimentSpec.from_dict(payload)


def parse_set_arguments(pairs) -> Dict[str, str]:
    """Parse CLI ``--set key=value`` strings into an override mapping."""
    overrides: Dict[str, str] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigurationError(
                f"--set expects KEY=VALUE, got {pair!r}"
            )
        key, _, value = pair.partition("=")
        key = key.strip()
        if not key:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {pair!r}")
        overrides[key] = value
    return overrides
