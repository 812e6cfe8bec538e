"""Declarative experiment API: specs, a stage-based runner and a scenario registry.

Every experiment runs through three pieces:

* :mod:`repro.experiments.spec` — frozen, serialisable
  :class:`~repro.experiments.spec.ExperimentSpec` dataclasses
  (dataset + detector-per-tier + topology + deployment + policy)
  with ``to_dict``/``from_dict``/JSON round-trips and dotted-path overrides;
* :mod:`repro.experiments.runner` — the
  :class:`~repro.experiments.runner.ExperimentRunner`, decomposing the shared
  recipe into composable stages
  (``prepare_data -> fit_detectors -> deploy -> train_policy -> evaluate``),
  each individually invokable and forkable for policy sweeps;
* :mod:`repro.experiments.registry` — the
  :class:`~repro.experiments.registry.ScenarioRegistry` with the built-in
  scenarios of :mod:`repro.experiments.scenarios` (the paper's two tracks,
  paper-scale variants, a 4-tier hierarchy and a mixed-detector deployment).
"""

from repro.experiments.spec import (
    DataSpec,
    DeploymentSpec,
    DetectorSpec,
    DeviceSpec,
    ExperimentSpec,
    LinkSpec,
    PolicySpec,
    TopologySpec,
    apply_overrides,
    parse_set_arguments,
)
from repro.adapt.spec import AdaptSpec
from repro.fleet.spec import FleetSpec, MutatorSpec
from repro.obs.spec import ObsSpec
from repro.serving.spec import ServingSpec
from repro.experiments.stages import (
    PipelineResult,
    compute_reward_table,
    evaluate_all_schemes,
    train_policy,
)
from repro.experiments.runner import ExperimentRunner, ExperimentState
from repro.experiments.registry import (
    SCENARIOS,
    ScenarioEntry,
    ScenarioRegistry,
    get_scenario,
    register_scenario,
)
import repro.experiments.scenarios  # noqa: F401  (registers the built-ins)
import repro.fleet.scenarios  # noqa: F401  (registers the fleet scenarios)
import repro.adapt.scenarios  # noqa: F401  (registers the adaptation scenarios)
import repro.serving.scenarios  # noqa: F401  (registers the serving scenarios)
import repro.fleet.qualify  # noqa: F401  (registers the qualification scenarios)

__all__ = [
    # specs
    "DataSpec",
    "DetectorSpec",
    "DeviceSpec",
    "LinkSpec",
    "TopologySpec",
    "DeploymentSpec",
    "PolicySpec",
    "FleetSpec",
    "MutatorSpec",
    "AdaptSpec",
    "ObsSpec",
    "ServingSpec",
    "ExperimentSpec",
    "apply_overrides",
    "parse_set_arguments",
    # stages / runner
    "PipelineResult",
    "compute_reward_table",
    "evaluate_all_schemes",
    "train_policy",
    "ExperimentRunner",
    "ExperimentState",
    # registry
    "ScenarioRegistry",
    "ScenarioEntry",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
]
