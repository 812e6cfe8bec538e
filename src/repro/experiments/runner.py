"""The stage-based experiment runner.

:class:`ExperimentRunner` executes an :class:`~repro.experiments.spec.ExperimentSpec`
through five composable stages::

    prepare_data -> fit_detectors -> deploy -> train_policy -> evaluate

Each stage is an ordinary method: call :meth:`ExperimentRunner.run` to execute
whatever has not run yet, or invoke stages individually to inspect
intermediate state.

The master RNG is consumed in a fixed order (anomaly-detection split, one
detector seed per layer, policy-training split), so equal specs yield
identical Table I / Table II rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Set

import numpy as np

from repro.adapt.controller import AdaptationController
from repro.bandit.context import (
    ContextExtractor,
    EncoderContextExtractor,
    UnivariateContextExtractor,
)
from repro.bandit.reward import DelayCost, RewardFunction
from repro.data.datasets import LabeledWindows
from repro.data.mhealth import MHealthConfig, generate_mhealth_dataset
from repro.data.power import PowerDatasetConfig, generate_power_dataset, weekly_windows
from repro.data.preprocessing import StandardScaler
from repro.data.splits import anomaly_detection_split, policy_training_split
from repro.data.windowing import windows_from_dataset
from repro.detectors.autoencoder import build_autoencoder_detector
from repro.detectors.base import AnomalyDetector
from repro.detectors.lstm_seq2seq import Seq2SeqDetector, build_seq2seq_detector
from repro.exceptions import ConfigurationError
from repro.experiments.spec import DataSpec, DetectorSpec, ExperimentSpec
from repro.experiments.stages import (
    TIERS,
    PipelineResult,
    evaluate_all_schemes,
    train_policy,
)
from repro.evaluation.tables import ModelComparisonRow, model_comparison_row
from repro.fleet.checkpoint import save_run_descriptor
from repro.fleet.devices import DeviceFleet, WindowPool
from repro.fleet.engine import FleetEngine
from repro.fleet.report import FleetReport
from repro.hec.deployment import ModelDeployment, deploy_detectors
from repro.hec.simulation import HECSystem
from repro.obs.export import Telemetry
from repro.serving.report import ServingReport
from repro.serving.run import blue_green_swap, serve_workload
from repro.utils.rng import ensure_rng

@dataclass
class ExperimentState:
    """Mutable state threaded through the runner's stages."""

    rng: np.random.Generator
    completed: Set[str] = field(default_factory=set)
    # prepare_data
    all_windows: Optional[LabeledWindows] = None
    standardized_all: Optional[LabeledWindows] = None
    scaler: Optional[StandardScaler] = None
    train_windows: Optional[np.ndarray] = None
    test_windows: Optional[np.ndarray] = None
    test_labels: Optional[np.ndarray] = None
    # fit_detectors
    detectors: List[AnomalyDetector] = field(default_factory=list)
    # deploy
    system: Optional[HECSystem] = None
    deployments: List[ModelDeployment] = field(default_factory=list)
    # train_policy
    policy: Optional[object] = None
    bandit_log: Optional[object] = None
    reward_table: Optional[np.ndarray] = None
    context_extractor: Optional[ContextExtractor] = None
    reward_fn: Optional[RewardFunction] = None
    # evaluate
    result: Optional[PipelineResult] = None
    # stream
    fleet_report: Optional[FleetReport] = None
    #: The adaptation controller of the last ``stream`` call (``None`` for
    #: frozen-detector runs); exposes the model registry.
    adaptation_controller: Optional[object] = None
    # serve
    serving_report: Optional[ServingReport] = None


def _data_config(data: DataSpec):
    """The concrete generator configuration for a :class:`DataSpec`."""
    if data.source == "power":
        kwargs = {}
        if data.noise_std is not None:
            kwargs["noise_std"] = data.noise_std
        if data.weekend_level is not None:
            kwargs["weekend_level"] = data.weekend_level
        return PowerDatasetConfig(
            weeks=data.weeks,
            samples_per_day=data.samples_per_day,
            anomalous_day_fraction=data.anomalous_day_fraction,
            seed=data.seed,
            **kwargs,
        )
    kwargs = {}
    if data.noise_std is not None:
        kwargs["noise_std"] = data.noise_std
    if data.subject_variability is not None:
        kwargs["subject_variability"] = data.subject_variability
    if data.normal_activity is not None:
        kwargs["normal_activity"] = data.normal_activity
    return MHealthConfig(
        n_subjects=data.n_subjects,
        seconds_per_activity=data.seconds_per_activity,
        sampling_rate_hz=data.sampling_rate_hz,
        seed=data.seed,
        **kwargs,
    )


def _prepare_windows(data: DataSpec) -> LabeledWindows:
    """Generate the dataset and cut it into labelled windows."""
    config = _data_config(data)
    if data.source == "power":
        dataset = generate_power_dataset(config)
        windows, labels = weekly_windows(dataset, data.samples_per_day)
        return LabeledWindows(windows=windows, labels=labels)
    dataset = generate_mhealth_dataset(config)
    return windows_from_dataset(
        dataset,
        window_size=data.window_size,
        stride=data.stride,
        purity="activity",
    )


def _build_detector(
    spec: DetectorSpec,
    tier: str,
    window_shape: tuple,
    seed: int,
) -> AnomalyDetector:
    """Instantiate one detector for ``tier`` given the training-window shape.

    The family reads the windows in its own layout, so the shape only sets the
    input size: an autoencoder takes every value of a window, a seq2seq model
    one channel per column of a ``(T, C)`` window (one for ``(T,)`` windows).
    """
    if spec.family == "autoencoder":
        return build_autoencoder_detector(
            tier,
            window_size=math.prod(window_shape),
            hidden_sizes=spec.hidden_sizes,
            name=spec.name,
            seed=seed,
        )
    return build_seq2seq_detector(
        tier,
        n_channels=window_shape[1] if len(window_shape) > 1 else 1,
        units=spec.units,
        inference_mode=spec.inference_mode,
        dropout_rate=spec.dropout_rate,
        name=spec.name,
        seed=seed,
    )


class ExperimentRunner:
    """Execute an :class:`ExperimentSpec` stage by stage."""

    #: Canonical stage order.
    STAGES = ("prepare_data", "fit_detectors", "deploy", "train_policy", "evaluate")

    def __init__(
        self,
        spec: ExperimentSpec,
        verbose: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.spec = spec
        self.verbose = verbose
        #: The telemetry session every stage reports into.  Explicitly passed
        #: sessions win; otherwise a spec with an enabled ``obs`` node gets
        #: one created here (finalize it — the CLI does — to flush artifacts).
        if telemetry is None and spec.obs is not None and spec.obs.enabled:
            telemetry = Telemetry(
                out_dir=spec.obs.dir, spec=spec.obs, name=spec.name
            )
        self.telemetry = telemetry
        self.state = ExperimentState(rng=ensure_rng(spec.seed))

    # -- bookkeeping ------------------------------------------------------------

    def _require(self, *stages: str) -> None:
        missing = [stage for stage in stages if stage not in self.state.completed]
        if missing:
            raise ConfigurationError(
                f"stage(s) {missing} must run before this one; call run() or the "
                "stage methods in order " + " -> ".join(self.STAGES)
            )

    def _done(self, stage: str) -> None:
        self.state.completed.add(stage)

    def _run_stage(self, stage: str) -> None:
        """Run one stage method, under a ``runner.<stage>`` span when tracing."""
        telemetry = self.telemetry
        if telemetry is None or not telemetry.trace_enabled:
            getattr(self, stage)()
            return
        with telemetry.tracer.span(f"runner.{stage}"):
            getattr(self, stage)()

    @property
    def tier_names(self) -> tuple:
        """Tier names, bottom layer first."""
        return self.spec.topology.tier_names

    # -- stages ----------------------------------------------------------------

    def prepare_data(self) -> "ExperimentRunner":
        """Generate windows, apply the anomaly-detection split and standardise."""
        data = self.spec.data
        state = self.state
        state.all_windows = _prepare_windows(data)
        ad_split = anomaly_detection_split(
            state.all_windows,
            normal_train_fraction=data.normal_train_fraction,
            anomaly_test_fraction=data.anomaly_test_fraction,
            rng=state.rng,
        )
        state.scaler = StandardScaler().fit(ad_split.train.windows)
        state.train_windows = state.scaler.transform(ad_split.train.windows)
        state.test_windows = state.scaler.transform(ad_split.test.windows)
        state.test_labels = ad_split.test.labels
        state.standardized_all = LabeledWindows(
            windows=state.scaler.transform(state.all_windows.windows),
            labels=state.all_windows.labels,
        )
        self._done("prepare_data")
        return self

    def fit_detectors(self) -> "ExperimentRunner":
        """Build and train one detector per layer on the normal training windows."""
        self._require("prepare_data")
        state = self.state
        window_shape = tuple(state.train_windows.shape[1:])
        state.detectors = []
        for layer, det_spec in enumerate(self.spec.detectors):
            seed = int(state.rng.integers(0, 2**31 - 1))
            detector = _build_detector(det_spec, self.tier_names[layer], window_shape, seed)
            detector.fit(
                state.train_windows,
                epochs=det_spec.epochs,
                batch_size=det_spec.batch_size,
                learning_rate=det_spec.learning_rate,
                verbose=self.verbose,
            )
            state.detectors.append(detector)
        self._done("fit_detectors")
        return self

    def deploy(self) -> "ExperimentRunner":
        """Place the fitted detectors on the topology and build the HEC system."""
        self._require("fit_detectors")
        state = self.state
        deployment = self.spec.deployment
        topology = self.spec.topology.build()
        state.deployments = deploy_detectors(
            state.detectors,
            topology,
            workload=deployment.workload,
            quantize_below_layer=deployment.quantize_below_layer,
        )
        state.system = HECSystem(topology, state.deployments)
        self._done("deploy")
        return self

    def train_policy(self) -> "ExperimentRunner":
        """Apply the policy split, extract contexts and run REINFORCE."""
        self._require("deploy")
        state = self.state
        data = self.spec.data
        policy_spec = self.spec.policy
        policy_train, _policy_test = policy_training_split(
            state.standardized_all,
            normal_fraction=data.policy_normal_fraction,
            anomaly_fraction=data.policy_anomaly_fraction,
            rng=state.rng,
        )
        state.context_extractor = self._build_context_extractor(policy_train.windows)
        state.reward_fn = RewardFunction(cost=DelayCost(alpha=policy_spec.alpha))
        state.policy, state.bandit_log, state.reward_table = train_policy(
            state.system,
            state.detectors,
            state.context_extractor,
            policy_train.windows,
            policy_train.labels,
            state.reward_fn,
            hidden_units=policy_spec.hidden_units,
            episodes=policy_spec.episodes,
            learning_rate=policy_spec.learning_rate,
            entropy_weight=policy_spec.entropy_weight,
            seed=self.spec.seed,
        )
        self._done("train_policy")
        return self

    def _build_context_extractor(self, policy_train_windows: np.ndarray) -> ContextExtractor:
        policy_spec = self.spec.policy
        if policy_spec.context == "daily-stats":
            extractor = UnivariateContextExtractor(segments=policy_spec.context_segments)
            extractor.fit(policy_train_windows)
            return extractor
        bottom = self.state.detectors[0]
        if not isinstance(bottom, Seq2SeqDetector):
            raise ConfigurationError(
                "policy.context='iot-encoder' needs a seq2seq detector at layer 0, "
                f"got {type(bottom).__name__}"
            )
        return EncoderContextExtractor(bottom)

    def evaluate(self) -> PipelineResult:
        """Build the Table I / Table II rows and the final :class:`PipelineResult`."""
        self._require("train_policy")
        state = self.state
        label = self.spec.dataset_label
        # The paper's three-layer topology keeps the legacy Table II labels
        # (IoT Device / Edge / Cloud); deeper or renamed hierarchies label the
        # fixed schemes after their tiers.
        fixed_layer_names = None
        if self.tier_names != TIERS:
            fixed_layer_names = tuple(f"Always {tier}" for tier in self.tier_names)
        evaluations, table2_rows, demo_panel = evaluate_all_schemes(
            label,
            state.system,
            state.policy,
            state.context_extractor,
            state.test_windows,
            state.test_labels,
            state.reward_fn,
            fixed_layer_names=fixed_layer_names,
        )
        # Table I is a view of the fixed-layer schemes, which come first, bottom-up:
        # each ran its tier's detector over the whole test set.
        fixed = list(evaluations.values())[: len(self.tier_names)]
        table1_rows: List[ModelComparisonRow] = [
            model_comparison_row(
                dataset=label,
                tier=tier,
                layer=layer,
                detector=state.detectors[layer],
                evaluation=evaluation,
                execution_time_ms=state.deployments[layer].execution_time_ms,
            )
            for layer, (tier, evaluation) in enumerate(zip(self.tier_names, fixed))
        ]
        state.result = PipelineResult(
            dataset_name=label,
            detectors=dict(zip(self.tier_names, state.detectors)),
            system=state.system,
            deployments=state.deployments,
            policy=state.policy,
            context_extractor=state.context_extractor,
            reward_fn=state.reward_fn,
            bandit_log=state.bandit_log,
            table1_rows=table1_rows,
            table2_rows=table2_rows,
            evaluations=evaluations,
            demo_panel=demo_panel,
            test_windows=state.test_windows,
            test_labels=state.test_labels,
        )
        self._done("evaluate")
        return state.result

    def stream(
        self,
        registry_root: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_cadence: int = 0,
        resume: bool = False,
    ) -> FleetReport:
        """Stream the spec's fleet workload through the trained system.

        An *optional* sixth stage (not part of :attr:`STAGES`, so :meth:`run`
        stays purely offline): requires ``train_policy`` and a ``fleet`` node
        on the spec.  One :class:`~repro.fleet.engine.FleetEngine` streams it;
        ``fleet.n_shards > 1`` runs the devices as that many shards (see
        :mod:`repro.fleet.sharding`), with a report equal to the one-shard run's.

        A spec with an ``adapt`` node streams under an
        :class:`~repro.adapt.controller.AdaptationController` — drift
        monitoring, gated online retraining and hot-swap deployment —
        committing models into ``registry_root``, else ``adapt.registry_dir``,
        else ``<checkpoint_dir>/registry`` (where a resume finds the models
        its checkpoints name), else a run-scoped temporary directory.

        A spec with a ``faults`` node streams under that fault-injection
        schedule (see :mod:`repro.fleet.faults`).

        ``checkpoint_dir``/``checkpoint_cadence`` enable durable checkpoints
        every ``checkpoint_cadence`` ticks; ``resume=True`` continues from the
        newest checkpoint in ``checkpoint_dir`` (bit-identical to an
        uninterrupted run).  A fresh checkpointed run also writes ``run.json``
        into the directory so ``repro resume <dir>`` can rebuild the run.

        A runner with a telemetry session accumulates the per-stage
        wall-clock breakdown in its registry (``fleet_stage_seconds_total``,
        ``fleet_run_seconds_total``, ``fleet_windows_total``), sharded or
        not; ``repro fleet --profile`` prints it.
        """
        self._require("train_policy")
        fleet_spec = self.spec.fleet
        if fleet_spec is None:
            raise ConfigurationError(
                f"spec {self.spec.name!r} has no fleet node; add a FleetSpec "
                "(or pick a fleet scenario, see 'repro list')"
            )
        state = self.state
        pool = WindowPool.from_labeled(state.standardized_all)
        controller = None
        if self.spec.adapt is not None:
            registry = registry_root
            if registry is None and self.spec.adapt.registry_dir is None and checkpoint_dir:
                registry = str(Path(checkpoint_dir) / "registry")
            controller = AdaptationController(
                self.spec.adapt,
                system=state.system,
                tier_names=self.tier_names,
                metrics_window=fleet_spec.metrics_window,
                master_seed=self.spec.seed,
                registry_root=registry,
            )
        state.adaptation_controller = controller
        engine = FleetEngine(
            system=state.system,
            policy=state.policy,
            context_extractor=state.context_extractor,
            spec=fleet_spec,
            pool=pool,
            master_seed=self.spec.seed,
            name=self.spec.name,
            tier_names=self.tier_names,
            controller=controller,
            telemetry=self.telemetry,
            faults=self.spec.faults,
            checkpoint_dir=checkpoint_dir,
            checkpoint_cadence=checkpoint_cadence,
        )
        if checkpoint_dir is not None and not resume:
            save_run_descriptor(
                checkpoint_dir,
                {
                    "spec": self.spec.to_dict(),
                    "registry_root": registry_root,
                    "checkpoint_cadence": int(checkpoint_cadence),
                },
            )
        state.fleet_report = engine.run(resume=resume)
        self._done("stream")
        return state.fleet_report

    def serve(self, hot_swap: bool = False) -> ServingReport:
        """Serve the spec's fleet traffic through the asyncio front door.

        Another *optional* stage (like :meth:`stream`, not part of
        :attr:`STAGES`): requires ``train_policy`` plus both a ``fleet`` node
        (the traffic source) and a ``serve`` node (the front-door
        configuration).  Requests arrive open-loop at ``serve.offered_rps``,
        are micro-batched into ``detect_batch`` and answered with
        measured service latency; overload is absorbed by the bounded ingress
        queue and ``serve.shed_policy``.

        ``hot_swap=True`` performs one blue/green detector swap mid-run
        through the server's drain-and-swap gate — the deployment lands
        between micro-batches without dropping in-flight requests.
        """
        self._require("train_policy")
        if self.spec.serve is None:
            raise ConfigurationError(
                f"spec {self.spec.name!r} has no serve node; add a ServingSpec "
                "(or pick a serving scenario, see 'repro list')"
            )
        if self.spec.fleet is None:
            raise ConfigurationError(
                f"spec {self.spec.name!r} has no fleet node; serving draws its "
                "traffic from a device fleet — add a FleetSpec"
            )
        state = self.state
        pool = WindowPool.from_labeled(state.standardized_all)
        fleet = DeviceFleet(self.spec.fleet, pool, master_seed=self.spec.seed)
        swap = blue_green_swap(state.system) if hot_swap else None
        report, _results = serve_workload(
            system=state.system,
            policy=state.policy,
            context_extractor=state.context_extractor,
            serving=self.spec.serve,
            fleet=fleet,
            master_seed=self.spec.seed,
            name=self.spec.name,
            tier_names=self.tier_names,
            swap=swap,
            telemetry=self.telemetry,
            faults=self.spec.faults,
        )
        state.serving_report = report
        self._done("serve")
        return report

    # -- orchestration -----------------------------------------------------------

    def run(self) -> PipelineResult:
        """Run every stage that has not run yet; returns the pipeline result."""
        for stage in self.STAGES:
            if stage not in self.state.completed:
                self._run_stage(stage)
        return self.state.result

    def run_fleet(
        self,
        registry_root: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_cadence: int = 0,
        resume: bool = False,
    ) -> FleetReport:
        """Train (through ``train_policy``) and stream the fleet workload.

        The offline ``evaluate`` stage is skipped — fleet runs judge the
        system by its online metrics — but an already-evaluated runner can
        call this too (completed stages never re-run).  ``registry_root``
        places the adaptation model registry (specs with an ``adapt`` node);
        the remaining keywords are forwarded to :meth:`stream`.
        """
        for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
            if stage not in self.state.completed:
                self._run_stage(stage)
        if "stream" not in self.state.completed:
            self.stream(
                registry_root=registry_root,
                checkpoint_dir=checkpoint_dir,
                checkpoint_cadence=checkpoint_cadence,
                resume=resume,
            )
        return self.state.fleet_report

    def run_serve(self, hot_swap: bool = False) -> ServingReport:
        """Train (through ``train_policy``) and serve the open-loop workload.

        The serving sibling of :meth:`run_fleet`: offline ``evaluate`` is
        skipped, completed stages never re-run, and ``hot_swap`` is forwarded
        to :meth:`serve`.
        """
        for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
            if stage not in self.state.completed:
                self._run_stage(stage)
        if "serve" not in self.state.completed:
            self.serve(hot_swap=hot_swap)
        return self.state.serving_report
