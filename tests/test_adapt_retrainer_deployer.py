"""Tests for the online retrainer, hot-swap deployer and controller glue."""

import pickle

import numpy as np
import pytest

from repro.adapt.controller import AdaptationController
from repro.adapt.deployer import HotSwapDeployer
from repro.adapt.registry import ModelRegistry
from repro.adapt.retrainer import OnlineRetrainer, detection_f1
from repro.adapt.spec import AdaptSpec
from repro.detectors.autoencoder import build_autoencoder_detector
from repro.detectors.registry import DetectorRegistry
from repro.exceptions import ConfigurationError
from repro.hec.deployment import deploy_registry
from repro.hec.simulation import HECSystem
from repro.hec.topology import build_three_layer_topology


WINDOW_SIZE = 24


@pytest.fixture(scope="module")
def training_windows():
    rng = np.random.default_rng(42)
    base = np.sin(np.linspace(0, 4 * np.pi, WINDOW_SIZE))
    return base + 0.1 * rng.standard_normal((64, WINDOW_SIZE))


def _tiny_system(training_windows):
    """A fitted three-tier HEC system over tiny autoencoders."""
    topology = build_three_layer_topology()
    registry = DetectorRegistry()
    for layer, tier in enumerate(("iot", "edge", "cloud")):
        detector = build_autoencoder_detector(
            tier, window_size=WINDOW_SIZE, hidden_sizes=(8,), seed=layer
        )
        detector.fit(training_windows, epochs=3, batch_size=16)
        registry.register(layer, detector)
    deployments = deploy_registry(registry, topology, workload="univariate")
    return HECSystem(topology, deployments)


class TestOnlineRetrainer:
    def test_fine_tune_leaves_incumbent_untouched(self, training_windows):
        detector = build_autoencoder_detector(
            "iot", window_size=WINDOW_SIZE, hidden_sizes=(8,), seed=0
        )
        detector.fit(training_windows, epochs=2, batch_size=16)
        before = detector.model.get_weights()["0:AE-IoT_hidden_0"]["kernel"].copy()
        retrainer = OnlineRetrainer(epochs=2, batch_size=16)
        candidate = retrainer.fine_tune(detector, training_windows + 0.5, seed=(0,))
        after = detector.model.get_weights()["0:AE-IoT_hidden_0"]["kernel"]
        np.testing.assert_array_equal(after, before)
        assert candidate is not detector
        assert candidate.fitted

    def test_gate_accepts_recalibrated_candidate_on_drifted_data(self, training_windows):
        """After a mean shift, the fine-tuned candidate must win the gate."""
        detector = build_autoencoder_detector(
            "iot", window_size=WINDOW_SIZE, hidden_sizes=(8,), seed=0
        )
        detector.fit(training_windows, epochs=3, batch_size=16)
        rng = np.random.default_rng(7)
        shift = 1.2 * rng.standard_normal(WINDOW_SIZE) / np.sqrt(WINDOW_SIZE) * 6
        drifted_normal = training_windows + shift
        anomalies = drifted_normal[:16] + 3.0 * np.sign(
            rng.standard_normal((16, WINDOW_SIZE))
        )
        holdout = np.concatenate([drifted_normal[:32], anomalies])
        labels = np.concatenate([np.zeros(32, dtype=int), np.ones(16, dtype=int)])

        retrainer = OnlineRetrainer(epochs=4, batch_size=16)
        candidate = retrainer.fine_tune(detector, drifted_normal, seed=(0,))
        outcome = retrainer.evaluate(
            candidate, detector, holdout, labels, n_train_windows=len(drifted_normal)
        )
        assert outcome.candidate_f1 > outcome.incumbent_f1
        assert outcome.accepted
        assert outcome.n_train_windows == 64
        assert outcome.n_holdout_windows == 48

    def test_detection_f1_perfect_detector(self, training_windows):
        detector = build_autoencoder_detector(
            "iot", window_size=WINDOW_SIZE, hidden_sizes=(8,), seed=0
        )
        detector.fit(training_windows, epochs=3, batch_size=16)
        anomalies = training_windows[:8] + 10.0
        windows = np.concatenate([training_windows[:16], anomalies])
        labels = np.concatenate([np.zeros(16, dtype=int), np.ones(8, dtype=int)])
        assert detection_f1(detector, windows, labels) > 0.8

    def test_fine_tune_is_a_function_of_its_seed(self, training_windows):
        """The candidate depends on the incumbent's weights, the windows and
        the seed, never on how far the incumbent's generator has advanced —
        the registry stores weights only, so a resume must rebuild it."""
        detector = build_autoencoder_detector(
            "iot", window_size=WINDOW_SIZE, hidden_sizes=(8,), seed=0
        )
        detector.fit(training_windows, epochs=2, batch_size=16)
        retrainer = OnlineRetrainer(epochs=2, batch_size=16)
        first = retrainer.fine_tune(detector, training_windows, seed=(1, 2, 0, 9))
        detector.model._rng.random(100)
        again = retrainer.fine_tune(detector, training_windows, seed=(1, 2, 0, 9))
        other = retrainer.fine_tune(detector, training_windows, seed=(1, 2, 0, 10))

        def kernel(candidate):
            return candidate.model.get_weights()["0:AE-IoT_hidden_0"]["kernel"]

        np.testing.assert_array_equal(kernel(again), kernel(first))
        assert not np.array_equal(kernel(other), kernel(first))
        # Reseeded in place: the layers still share the model's generator.
        assert all(layer._rng is again.model._rng for layer in again.model.layers)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            OnlineRetrainer(epochs=0)


class TestHotSwapDeployer:
    def test_register_incumbents_roots_every_tier(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        registry = ModelRegistry(tmp_path / "reg")
        deployer = HotSwapDeployer(system, registry)
        deployer.register_incumbents(("iot", "edge", "cloud"))
        for tier in ("iot", "edge", "cloud"):
            current = registry.current(tier)
            assert current is not None
            assert registry.show(current).parent is None

    def test_register_incumbents_over_a_used_registry(self, training_windows, tmp_path):
        """A second run against a registry whose tiers moved on starts from
        its own roots again (and registering twice is harmless)."""
        registry = ModelRegistry(tmp_path / "reg")
        system = _tiny_system(training_windows)
        deployer = HotSwapDeployer(system, registry)
        deployer.register_incumbents(("iot", "edge", "cloud"))
        root = registry.current("cloud")
        candidate = OnlineRetrainer(epochs=1, batch_size=16).fine_tune(
            system.deployment_at(2).detector, training_windows, seed=(0,)
        )
        deployer.swap(tick=3, layer=2, tier="cloud", candidate=candidate)
        assert registry.current("cloud") != root
        rerun = HotSwapDeployer(_tiny_system(training_windows), registry)
        for _ in range(2):
            rerun.register_incumbents(("iot", "edge", "cloud"))
            assert registry.current("cloud") == root

    def test_swap_replaces_live_detector_and_quantizes(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        registry = ModelRegistry(tmp_path / "reg")
        deployer = HotSwapDeployer(system, registry)
        deployer.register_incumbents(("iot", "edge", "cloud"))

        incumbent = system.deployment_at(0).detector
        retrainer = OnlineRetrainer(epochs=2, batch_size=16)
        candidate = retrainer.fine_tune(incumbent, training_windows + 0.3, seed=(0,))
        # prepare_candidate quantises *before* the gate would score it.
        report = deployer.prepare_candidate(0, candidate)
        assert report is not None
        kernel = candidate.model.get_weights()["0:AE-IoT_hidden_0"]["kernel"]
        np.testing.assert_array_equal(
            kernel, kernel.astype(np.float16).astype(float)
        )
        event = deployer.swap(
            tick=9, layer=0, tier="iot", candidate=candidate, quantization=report,
            training_window=(2, 9), n_train_windows=64,
        )

        assert system.deployment_at(0).detector is candidate
        assert event.from_version != event.to_version
        assert event.quantized  # layer 0 is below the quantize boundary
        meta = registry.show(event.to_version)
        assert meta.parent == event.from_version
        assert meta.quantization is not None
        assert registry.current("iot") == event.to_version
        assert system.deployment_at(0).quantization is report

    def test_cloud_swap_not_quantized(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        deployer = HotSwapDeployer(system, ModelRegistry(tmp_path / "reg"))
        deployer.register_incumbents(("iot", "edge", "cloud"))
        candidate = OnlineRetrainer(epochs=1, batch_size=16).fine_tune(
            system.deployment_at(2).detector, training_windows, seed=(0,)
        )
        assert deployer.prepare_candidate(2, candidate) is None
        event = deployer.swap(tick=3, layer=2, tier="cloud", candidate=candidate)
        assert not event.quantized

    def test_unquantized_swap_clears_stale_quantization_metadata(
        self, training_windows, tmp_path
    ):
        """quantize_swapped=False on a quantised tier must not keep the old
        model's quantization report on the live deployment record."""
        system = _tiny_system(training_windows)
        deployer = HotSwapDeployer(
            system, ModelRegistry(tmp_path / "reg"), quantize_swapped=False
        )
        deployer.register_incumbents(("iot", "edge", "cloud"))
        deployment = system.deployment_at(0)
        assert deployment.quantized  # original deployment was fp16
        candidate = OnlineRetrainer(epochs=1, batch_size=16).fine_tune(
            deployment.detector, training_windows, seed=(0,)
        )
        assert deployer.prepare_candidate(0, candidate) is None
        event = deployer.swap(tick=5, layer=0, tier="iot", candidate=candidate)
        assert not event.quantized
        assert not deployment.quantized
        assert deployment.quantization is None

    def test_swap_without_incumbent_raises(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        deployer = HotSwapDeployer(system, ModelRegistry(tmp_path / "reg"))
        with pytest.raises(ConfigurationError, match="register_incumbents"):
            deployer.swap(
                tick=0, layer=0, tier="iot",
                candidate=system.deployment_at(0).detector,
            )


class TestAdaptationController:
    def _controller(self, system, tmp_path, **spec_kwargs):
        defaults = dict(
            monitors=("page-hinkley",),
            ph_delta=0.0,
            ph_threshold=0.5,
            warmup_ticks=2,
            cooldown_ticks=4,
            reservoir_size=64,
            holdout_size=64,
            min_retrain_windows=8,
            retrain_epochs=2,
        )
        defaults.update(spec_kwargs)
        return AdaptationController(
            AdaptSpec(**defaults),
            system=system,
            tier_names=("iot", "edge", "cloud"),
            metrics_window=4,
            master_seed=0,
            registry_root=str(tmp_path / "reg"),
        )

    def test_warmup_suppresses_events(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        controller = self._controller(system, tmp_path, warmup_ticks=100)
        rng = np.random.default_rng(0)
        for tick in range(10):
            windows = training_windows[:4] + (0.0 if tick < 5 else 5.0)
            controller.observe_batch(
                tick, 0, windows=windows, keys=np.arange(4 * tick, 4 * tick + 4),
                predictions=np.zeros(4, dtype=int), labels=np.zeros(4, dtype=int),
                scores=rng.normal(-100.0 * (tick >= 5), 0.1, size=4),
            )
            controller.end_tick(tick)
        assert controller.drifts == []
        assert controller.retrains == []

    def test_drift_triggers_gated_retrain_and_swap(self, training_windows, tmp_path):
        from repro.obs.export import Telemetry

        system = _tiny_system(training_windows)
        controller = self._controller(system, tmp_path)
        controller.telemetry = Telemetry()
        rng = np.random.default_rng(1)
        incumbent = system.deployment_at(0).detector
        shift = 4.0 * np.ones(WINDOW_SIZE) / np.sqrt(WINDOW_SIZE)
        for tick in range(12):
            drifted = tick >= 4
            windows = training_windows[
                rng.integers(0, len(training_windows), size=6)
            ] + (shift if drifted else 0.0)
            detected = system.detect_batch(0, windows)
            controller.observe_batch(
                tick, 0, windows=windows, keys=np.arange(6 * tick, 6 * tick + 6),
                predictions=detected.predictions,
                labels=np.zeros(6, dtype=int),
                scores=detected.anomaly_scores,
            )
            controller.end_tick(tick)
        assert len(controller.drifts) >= 1
        assert len(controller.retrains) >= 1
        timeline = controller.timeline()
        assert timeline.drifts == tuple(controller.drifts)
        if timeline.swaps:
            assert system.deployment_at(0).detector is not incumbent

        def observed(name):
            """Observation count of a latency histogram (their one owner)."""
            family = controller.telemetry.registry.get(name)
            return family.snapshot()["count"] if family is not None else 0

        assert observed("adapt_retrain_seconds") == len(timeline.retrains)
        assert observed("adapt_swap_seconds") == len(timeline.swaps)

    def test_anonymous_registry_is_ephemeral_and_cleaned_up(self, training_windows):
        system = _tiny_system(training_windows)
        controller = AdaptationController(
            AdaptSpec(),
            system=system,
            tier_names=("iot", "edge", "cloud"),
            metrics_window=4,
        )
        assert controller.registry_is_ephemeral
        root = controller.registry.root
        assert root.exists()  # incumbents were committed at construction
        controller._tmpdir.cleanup()
        assert not root.exists()

    def test_explicit_registry_is_not_ephemeral(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        controller = self._controller(system, tmp_path)
        assert not controller.registry_is_ephemeral

    def test_cooldown_limits_retrain_rate(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        controller = self._controller(system, tmp_path, cooldown_ticks=1000)
        rng = np.random.default_rng(2)
        for tick in range(12):
            windows = training_windows[:6] + (0.0 if tick < 4 else 3.0)
            controller.observe_batch(
                tick, 0, windows=windows, keys=np.arange(6 * tick, 6 * tick + 6),
                predictions=np.zeros(6, dtype=int), labels=np.zeros(6, dtype=int),
                scores=rng.normal(-200.0 * (tick >= 4), 0.1, size=6),
            )
            controller.end_tick(tick)
        assert len(controller.retrains) <= 1

    def test_snapshot_is_data_and_restores_through_the_registry(
        self, training_windows, tmp_path
    ):
        """The snapshot names each tier's version and holds no detector; a
        restore reads the weights back into a copy and rebinds it, and a
        registry that lacks a recorded version is refused by name."""
        from repro.exceptions import SerializationError

        system = _tiny_system(training_windows)
        controller = self._controller(system, tmp_path)
        candidate = controller.retrainer.fine_tune(
            system.deployment_at(0).detector, training_windows + 0.3, seed=(0,)
        )
        swap = controller.deployer.swap(
            tick=3, layer=0, tier="iot", candidate=candidate,
            quantization=controller.deployer.prepare_candidate(0, candidate),
        )
        snapshot = controller.snapshot_state()
        assert snapshot["versions"]["iot"] == swap.to_version
        pickled = pickle.dumps(snapshot)
        for module in (b"repro.detectors", b"repro.nn", b"numpy.random"):
            assert module not in pickled, module

        fresh = _tiny_system(training_windows)
        original = fresh.deployment_at(0).detector
        resumed = self._controller(fresh, tmp_path)
        resumed.restore_state(snapshot)
        restored = fresh.deployment_at(0)
        assert restored.detector is not original and restored.quantized
        assert resumed.registry.current("iot") == swap.to_version
        np.testing.assert_array_equal(
            restored.detector.predict(training_windows), candidate.predict(training_windows)
        )

        elsewhere = self._controller(_tiny_system(training_windows), tmp_path / "other")
        with pytest.raises(SerializationError, match=swap.to_version):
            elsewhere.restore_state(snapshot)
