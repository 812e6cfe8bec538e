"""Tests for the versioned model registry (repro.adapt.registry)."""

import numpy as np
import pytest

from repro.adapt.registry import ModelRegistry, ModelVersion
from repro.detectors.autoencoder import AutoencoderDetector
from repro.exceptions import ConfigurationError, SerializationError
from repro.nn.quantization import quantization_report, quantize_model


def _fitted_detector(seed=0, window_size=16):
    rng = np.random.default_rng(seed)
    detector = AutoencoderDetector(
        window_size=window_size, hidden_sizes=(6,), name=f"AE-{seed}", seed=seed
    )
    detector.fit(rng.normal(size=(24, window_size)), epochs=2, batch_size=8)
    return detector


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestCommitAndRestore:
    def test_commit_returns_content_addressed_version(self, registry):
        detector = _fitted_detector()
        meta = registry.commit(detector, tier="iot", layer=0)
        assert meta.version.startswith("v-")
        assert meta.parent is None
        assert meta.parameter_count == detector.parameter_count()
        # Identical content commits to the identical version.
        again = registry.commit(detector, tier="iot", layer=0)
        assert again.version == meta.version

    def test_different_weights_different_version(self, registry):
        first = registry.commit(_fitted_detector(seed=0), tier="iot", layer=0)
        second = registry.commit(_fitted_detector(seed=1), tier="iot", layer=0)
        assert first.version != second.version

    def test_identical_content_on_two_tiers_gets_distinct_versions(self, registry):
        """Per-tier lineage must stay unambiguous even for shared weights."""
        detector = _fitted_detector()
        iot = registry.commit(detector, tier="iot", layer=0)
        edge = registry.commit(detector, tier="edge", layer=1)
        assert iot.version != edge.version
        assert registry.show(iot.version).tier == "iot"
        assert registry.show(edge.version).tier == "edge"

    def test_restore_round_trips_predictions(self, registry):
        detector = _fitted_detector()
        windows = np.random.default_rng(5).normal(size=(8, 16))
        expected_scores = [r.anomaly_score for r in detector.detect(windows)]
        meta = registry.commit(detector, tier="iot", layer=0)

        clone = AutoencoderDetector(window_size=16, hidden_sizes=(6,), name="AE-0", seed=99)
        registry.restore(meta.version, clone)
        assert clone.fitted
        restored_scores = [r.anomaly_score for r in clone.detect(windows)]
        np.testing.assert_allclose(restored_scores, expected_scores)
        assert clone.scorer.threshold == pytest.approx(detector.scorer.threshold)

    def test_restore_missing_version_raises(self, registry):
        with pytest.raises(SerializationError):
            registry.restore("v-doesnotexist", _fitted_detector())

    def test_corrupt_checkpoint_raises_serialization_error(self, registry):
        detector = _fitted_detector()
        meta = registry.commit(detector, tier="iot", layer=0)
        weights_path = registry._version_dir(meta.version) / "model.weights.npz"
        weights_path.write_bytes(b"this is not an npz archive")
        with pytest.raises(SerializationError, match="corrupt"):
            registry.restore(meta.version, _fitted_detector(seed=3))

    def test_versions_listing_sorted_and_complete(self, registry):
        committed = {
            registry.commit(_fitted_detector(seed=s), tier="iot", layer=0).version
            for s in range(3)
        }
        listed = registry.versions()
        assert [m.version for m in listed] == sorted(m.version for m in listed)
        assert {m.version for m in listed} == committed

    def test_metadata_round_trips(self, registry):
        detector = _fitted_detector()
        report = quantization_report(detector.model)
        meta = registry.commit(
            detector, tier="edge", layer=1, parent="v-parent",
            training_window=(4, 19), n_train_windows=128, quantization=report,
        )
        loaded = registry.show(meta.version)
        assert loaded == meta
        assert loaded.training_window == (4, 19)
        assert loaded.quantization["compression_ratio"] == pytest.approx(2.0)
        assert isinstance(loaded, ModelVersion)


class _RawTreeModel:
    """A minimal model storing its weight tree verbatim (no dtype coercion)."""

    def __init__(self, weights):
        self.weights = weights

    def get_config(self):
        return {"type": "RawTreeModel"}

    def get_weights(self):
        return self.weights

    def set_weights(self, weights):
        self.weights = weights


class _RawTreeDetector:
    """Duck-typed detector wrapper around :class:`_RawTreeModel` + a scorer."""

    def __init__(self, weights, scorer):
        self.name = "raw-tree"
        self.model = _RawTreeModel(weights)
        self.scorer = scorer
        self.fitted = True

    def parameter_count(self):
        return int(sum(a.size for p in self.model.weights.values() for a in p.values()))


class TestDtypePreservation:
    def _half_detector(self):
        scorer = _fitted_detector().scorer
        weights = {
            "encoder": {
                "kernel": np.arange(6, dtype=np.float16).reshape(2, 3),
                "bias": np.zeros(3, dtype=np.float16),
            }
        }
        return _RawTreeDetector(weights, scorer)

    def test_fp16_weights_stay_fp16_on_disk(self, registry):
        """Stored dtypes survive the commit/restore round trip (no float64 upcast)."""
        detector = self._half_detector()
        meta = registry.commit(detector, tier="iot", layer=0)
        assert meta.weight_dtypes == {"float16": 2}

        clone = self._half_detector()
        clone.model.weights = {}
        registry.restore(meta.version, clone)
        for array in clone.model.weights["encoder"].values():
            assert array.dtype == np.float16
        np.testing.assert_array_equal(
            clone.model.weights["encoder"]["kernel"],
            detector.model.weights["encoder"]["kernel"],
        )

    def test_quantized_commit_restores_identical_values(self, registry):
        detector = _fitted_detector()
        quantize_model(detector.model)
        quantized_weights = detector.model.get_weights()
        meta = registry.commit(detector, tier="iot", layer=0)
        clone = AutoencoderDetector(window_size=16, hidden_sizes=(6,), name="AE-0", seed=8)
        registry.restore(meta.version, clone)
        restored = clone.model.get_weights()
        for layer in quantized_weights:
            for key in quantized_weights[layer]:
                np.testing.assert_array_equal(
                    restored[layer][key], quantized_weights[layer][key]
                )


class TestPromotionLineage:
    def test_promote_and_current(self, registry):
        meta = registry.commit(_fitted_detector(), tier="iot", layer=0)
        assert registry.current("iot") is None
        registry.promote(meta.version, tier="iot")
        assert registry.current("iot") == meta.version
        assert registry.lineage("iot") == [meta.version]

    def test_duplicate_promote_raises(self, registry):
        meta = registry.commit(_fitted_detector(), tier="iot", layer=0)
        registry.promote(meta.version, tier="iot")
        with pytest.raises(ConfigurationError, match="already current"):
            registry.promote(meta.version, tier="iot")

    def test_promote_unknown_version_raises(self, registry):
        with pytest.raises(SerializationError):
            registry.promote("v-missing", tier="iot")

    def test_rollback_restores_previous(self, registry):
        root = registry.commit(_fitted_detector(seed=0), tier="iot", layer=0)
        child = registry.commit(_fitted_detector(seed=1), tier="iot", layer=0)
        registry.promote(root.version, tier="iot")
        registry.promote(child.version, tier="iot")
        assert registry.rollback("iot") == root.version
        assert registry.current("iot") == root.version

    def test_rollback_past_root_raises(self, registry):
        root = registry.commit(_fitted_detector(), tier="iot", layer=0)
        registry.promote(root.version, tier="iot")
        with pytest.raises(ConfigurationError, match="root version"):
            registry.rollback("iot")

    def test_rollback_empty_tier_raises(self, registry):
        with pytest.raises(ConfigurationError, match="no promoted versions"):
            registry.rollback("cloud")

    def test_reads_never_create_the_registry_directory(self, tmp_path):
        """Read-only operations on a mistyped path must not conjure a registry."""
        registry = ModelRegistry(tmp_path / "typo")
        assert registry.versions() == []
        assert registry.current("iot") is None
        with pytest.raises(SerializationError):
            registry.show("v-nope")
        assert not (tmp_path / "typo").exists()

    def test_deterministic_on_disk_layout(self, registry):
        detector = _fitted_detector()
        meta = registry.commit(detector, tier="iot", layer=0)
        registry.promote(meta.version, tier="iot")
        directory = registry._version_dir(meta.version)
        assert sorted(p.name for p in directory.iterdir()) == [
            "meta.json", "model.json", "model.weights.npz", "scorer.npz",
        ]
        manifest_before = registry.manifest_path.read_text()
        # Re-committing and re-reading must not perturb the layout.
        registry.commit(detector, tier="iot", layer=0)
        assert registry.manifest_path.read_text() == manifest_before
