"""Tests for the adaptation controller: its fine-tune, shadow gate and hot
swap, the per-tick loop that drives them, and the spec that configures it."""

import pickle

import numpy as np
import pytest

from repro.adapt.controller import AdaptationController
from repro.adapt.spec import AdaptSpec
from repro.detectors.autoencoder import build_autoencoder_detector
from repro.exceptions import ConfigurationError
from repro.hec.deployment import deploy_detectors
from repro.hec.simulation import HECSystem
from repro.hec.topology import build_three_layer_topology


WINDOW_SIZE = 24
TIERS = ("iot", "edge", "cloud")


@pytest.fixture(scope="module")
def training_windows():
    rng = np.random.default_rng(42)
    base = np.sin(np.linspace(0, 4 * np.pi, WINDOW_SIZE))
    return base + 0.1 * rng.standard_normal((64, WINDOW_SIZE))


@pytest.fixture(scope="module")
def drifted(training_windows):
    """64 clean windows after a mean shift, then 16 labelled anomalies."""
    rng = np.random.default_rng(7)
    shift = 1.2 * rng.standard_normal(WINDOW_SIZE) / np.sqrt(WINDOW_SIZE) * 6
    drifted_normal = training_windows + shift
    anomalies = drifted_normal[:16] + 3.0 * np.sign(rng.standard_normal((16, WINDOW_SIZE)))
    windows = np.concatenate([drifted_normal, anomalies])
    labels = np.concatenate([np.zeros(64, dtype=int), np.ones(16, dtype=int)])
    return windows, labels


def _tiny_system(training_windows):
    """A fitted three-tier HEC system over tiny autoencoders."""
    topology = build_three_layer_topology()
    detectors = []
    for layer, tier in enumerate(TIERS):
        detector = build_autoencoder_detector(
            tier, window_size=WINDOW_SIZE, hidden_sizes=(8,), seed=layer
        )
        detector.fit(training_windows, epochs=3, batch_size=16)
        detectors.append(detector)
    deployments = deploy_detectors(detectors, topology, workload="univariate")
    return HECSystem(topology, deployments)


def _controller(system, registry_root, **spec_kwargs):
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
        tier_names=TIERS,
        metrics_window=4,
        master_seed=0,
        registry_root=str(registry_root),
    )


def _fill(controller, layer, windows, labels, tick=3):
    """Feed one labelled batch to ``layer``'s reservoirs (no score stream, so
    no monitor fires)."""
    controller.observe_batch(
        tick, layer, windows=windows, keys=np.arange(len(windows)) + 1000 * tick,
        predictions=np.zeros(len(windows), dtype=int), labels=labels,
        scores=np.zeros(0),
    )


def _kernel(detector):
    return detector.model.get_weights()["0:AE-IoT_hidden_0"]["kernel"]


class TestFineTune:
    def test_fine_tune_leaves_incumbent_untouched(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg")
        detector = system.deployment_at(0).detector
        before = _kernel(detector).copy()
        candidate = controller._fine_tune(detector, training_windows + 0.5, seed=(0,))
        np.testing.assert_array_equal(_kernel(detector), before)
        assert candidate is not detector
        assert candidate.fitted

    def test_fine_tune_is_a_function_of_its_seed(self, training_windows, tmp_path):
        """The candidate depends on the incumbent's weights, the windows and
        the seed, never on how far the incumbent's generator has advanced —
        the registry stores weights only, so a resume must rebuild it."""
        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg")
        detector = system.deployment_at(0).detector
        first = controller._fine_tune(detector, training_windows, seed=(1, 2, 0, 9))
        detector.model._rng.random(100)
        again = controller._fine_tune(detector, training_windows, seed=(1, 2, 0, 9))
        other = controller._fine_tune(detector, training_windows, seed=(1, 2, 0, 10))
        np.testing.assert_array_equal(_kernel(again), _kernel(first))
        assert not np.array_equal(_kernel(other), _kernel(first))
        # Reseeded in place: the layers still share the model's generator.
        assert all(layer._rng is again.model._rng for layer in again.model.layers)


class TestGate:
    def test_gate_accepts_recalibrated_candidate_on_drifted_data(
        self, training_windows, drifted, tmp_path
    ):
        """After a mean shift, the fine-tuned candidate must win the gate."""
        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg", retrain_epochs=4)
        _fill(controller, 0, *drifted)
        controller._retrain(5, 0)
        (event,) = controller.retrains
        assert event.candidate_f1 > event.incumbent_f1
        assert event.accepted
        assert event.n_train_windows == 64  # every clean window
        assert event.n_holdout_windows == 64  # the holdout's capacity
        assert event.candidate_version == controller.swaps[-1].to_version

    def test_gate_rejects_a_candidate_that_does_not_win(self, training_windows, tmp_path):
        """On undrifted data the incumbent separates the anomalies perfectly,
        so no candidate can beat it: the attempt is recorded, and the
        incumbent keeps serving and stays current."""
        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg")
        incumbent = system.deployment_at(0).detector
        root = controller.registry.current("iot")
        windows = np.concatenate([training_windows, training_windows[:16] + 10.0])
        labels = np.concatenate([np.zeros(64, dtype=int), np.ones(16, dtype=int)])
        _fill(controller, 0, windows, labels)
        controller._retrain(5, 0)
        (event,) = controller.retrains
        assert event.incumbent_f1 == 1.0 >= event.candidate_f1
        assert not event.accepted and event.candidate_version is None
        assert controller.swaps == []
        assert system.deployment_at(0).detector is incumbent
        assert controller.registry.current("iot") == root


class TestSwap:
    def test_construction_roots_every_tier(self, training_windows, tmp_path):
        controller = _controller(_tiny_system(training_windows), tmp_path / "reg")
        for tier in TIERS:
            current = controller.registry.current(tier)
            assert current is not None
            assert controller.registry.show(current).parent is None

    def test_a_second_controller_on_a_used_registry_starts_from_its_own_roots(
        self, training_windows, drifted, tmp_path
    ):
        """A second run against a registry whose tiers moved on starts from
        its own roots again (and registering twice is harmless)."""
        controller = _controller(_tiny_system(training_windows), tmp_path / "reg")
        root = controller.registry.current("cloud")
        _fill(controller, 2, *drifted)
        controller._retrain(5, 2)
        assert controller.registry.current("cloud") != root
        for _ in range(2):
            rerun = _controller(_tiny_system(training_windows), tmp_path / "reg")
            assert rerun.registry.current("cloud") == root

    def test_iot_swap_is_quantized_and_carries_lineage(
        self, training_windows, drifted, tmp_path
    ):
        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg")
        incumbent = system.deployment_at(0).detector
        windows, labels = drifted
        _fill(controller, 0, windows[:40], labels[:40], tick=3)
        _fill(controller, 0, windows[40:], labels[40:], tick=4)
        controller._retrain(9, 0)

        (event,) = controller.swaps
        deployment = system.deployment_at(0)
        candidate = deployment.detector
        assert candidate is not incumbent
        assert system.state_version == 1
        # Quantised before the gate scored it, and live in that form.
        kernel = _kernel(candidate)
        np.testing.assert_array_equal(kernel, kernel.astype(np.float16).astype(float))
        assert event.quantized  # layer 0 is below the quantize boundary
        assert deployment.quantized and deployment.quantization is not None
        assert event.tick == 9 and event.from_version != event.to_version
        meta = controller.registry.show(event.to_version)
        assert meta.parent == event.from_version
        assert meta.training_window == (3, 4)
        assert meta.n_train_windows == 64
        assert meta.quantization is not None
        # quantize_model rounds in place: the checkpoint is float64 on disk.
        assert meta.weight_dtypes == {"float64": 4}
        assert controller.registry.current("iot") == event.to_version

    def test_cloud_swap_not_quantized(self, training_windows, drifted, tmp_path):
        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg")
        _fill(controller, 2, *drifted)
        controller._retrain(5, 2)
        (event,) = controller.swaps
        assert not event.quantized
        deployment = system.deployment_at(2)
        assert not deployment.quantized and deployment.quantization is None
        assert controller.registry.show(event.to_version).quantization is None


class TestAdaptSpec:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"monitors": ()}, "at least one monitor"),
            ({"monitors": ("cusum",)}, "unknown monitor kind.*cusum"),
            ({"monitors": ("page-hinkley", "f1-floor", "page-hinkley")},
             "'page-hinkley'.*more than once"),
            ({"warmup_ticks": -1}, "warmup_ticks.*non-negative"),
            ({"cooldown_ticks": -1}, "cooldown_ticks.*non-negative"),
            ({"reservoir_size": 0}, "reservoir_size.*positive"),
            ({"holdout_size": 0}, "holdout_size.*positive"),
            ({"min_retrain_windows": 1}, "min_retrain_windows must exceed 1"),
            ({"retrain_epochs": 0}, "retrain_epochs.*positive"),
            ({"retrain_batch_size": 0}, "retrain_batch_size.*positive"),
            ({"retrain_learning_rate": 0.0}, "retrain_learning_rate must be positive"),
            # Monitor knobs are refused even when their monitor is not listed.
            ({"ph_threshold": 0.0, "monitors": ("f1-floor",)}, "ph_threshold must be positive"),
            ({"f1_floor_fraction": 1.0, "monitors": ("page-hinkley",)},
             r"f1_floor_fraction must lie in \(0, 1\)"),
            ({"f1_baseline_windows": 0}, "f1_baseline_windows must be at least 1"),
        ],
        ids=["no-monitor", "unknown-kind", "repeated-kind", "warmup", "cooldown",
             "reservoir", "holdout", "min-retrain-windows", "epochs", "batch-size",
             "learning-rate", "ph-threshold", "f1-floor-fraction", "f1-baseline-windows"],
    )
    def test_refusals(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            AdaptSpec(**kwargs)


class TestAdaptationController:
    def test_warmup_suppresses_events(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg", warmup_ticks=100)
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
        controller = _controller(system, tmp_path / "reg")
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
        controller = _controller(system, tmp_path / "reg")
        assert not controller.registry_is_ephemeral

    def test_cooldown_limits_retrain_rate(self, training_windows, tmp_path):
        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg", cooldown_ticks=1000)
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
        self, training_windows, drifted, tmp_path
    ):
        """The snapshot names each tier's version and holds no detector; a
        restore reads the weights back into a copy and rebinds it, and a
        registry that lacks a recorded version is refused by name."""
        from repro.exceptions import SerializationError

        system = _tiny_system(training_windows)
        controller = _controller(system, tmp_path / "reg")
        _fill(controller, 0, *drifted)
        controller._retrain(3, 0)
        (swap,) = controller.swaps
        candidate = system.deployment_at(0).detector
        report = system.deployment_at(0).quantization
        snapshot = controller.snapshot_state()
        assert snapshot["versions"]["iot"] == swap.to_version
        pickled = pickle.dumps(snapshot)
        for module in (b"repro.detectors", b"repro.nn", b"numpy.random"):
            assert module not in pickled, module

        fresh = _tiny_system(training_windows)
        original = fresh.deployment_at(0).detector
        resumed = _controller(fresh, tmp_path / "reg")
        resumed.restore_state(snapshot)
        restored = fresh.deployment_at(0)
        assert restored.detector is not original and restored.quantized
        assert restored.quantization == report
        assert resumed.registry.current("iot") == swap.to_version
        assert resumed.retrains == controller.retrains
        np.testing.assert_array_equal(
            restored.detector.predict(training_windows), candidate.predict(training_windows)
        )

        elsewhere = _controller(_tiny_system(training_windows), tmp_path / "other")
        with pytest.raises(SerializationError, match=swap.to_version):
            elsewhere.restore_state(snapshot)
