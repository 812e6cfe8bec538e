"""Tests for the columnar detection path.

``HECSystem.detect_batch`` is a boxing view over the kernel behind
``HECSystem.detect_batch_columnar``: its records must equal the columnar
arrays element for element — predictions, confidence flags, anomaly scores,
delays and every piece of bookkeeping — with and without ``escalated_ms``,
behind a down link and on jittery links.  The detectors' ``detect_arrays``
must likewise reproduce ``detect``.
"""

import copy

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.hec.simulation import BatchDetectionResult, _as_float64_batch


def _columnar_from_records(records):
    return (
        np.array([r.prediction for r in records], dtype=np.int64),
        np.array([r.confident for r in records], dtype=bool),
        np.array([r.anomaly_score for r in records]),
        np.array([r.delay_ms for r in records]),
    )


def _assert_same_outcome(reference, records, system, result):
    """Records from ``reference`` equal the arrays from ``system``, state included."""
    predictions, confidents, scores, delays = _columnar_from_records(records)
    assert isinstance(result, BatchDetectionResult)
    assert {r.layer for r in records} == {result.layer}
    assert np.array_equal(result.predictions, predictions)
    assert np.array_equal(result.confidents, confidents)
    assert np.array_equal(result.anomaly_scores, scores)
    assert np.array_equal(result.delays_ms, delays)
    assert system.layer_counters == reference.layer_counters
    assert system.clock.now_ms == reference.clock.now_ms
    for link_a, link_b in zip(reference.topology.links, system.topology.links):
        assert link_a.transfer_count == link_b.transfer_count
        assert link_a.transferred_bytes == link_b.transferred_bytes


class TestDetectBatchColumnar:
    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_matches_detect_batch(self, univariate_hec, layer):
        system, _deployments, _detectors, windows, labels = univariate_hec
        batch = windows[:10]
        reference = copy.deepcopy(system)
        for escalated_ms in (None, np.linspace(5.0, 50.0, 10)):
            reference.reset()
            records = reference.detect_batch(
                layer, batch, ground_truths=labels[:10], escalated_ms=escalated_ms
            )
            system.reset()
            result = system.detect_batch_columnar(
                layer, batch, with_confidence=True, escalated_ms=escalated_ms
            )
            assert result.layer == layer
            assert [r.window_index for r in records] == list(range(10))
            assert [r.ground_truth for r in records] == labels[:10].tolist()
            _assert_same_outcome(reference, records, system, result)
        # The escalated run reports exactly the plain delays plus escalated_ms.
        system.reset()
        plain = system.detect_batch_columnar(layer, batch)
        assert np.array_equal(result.delays_ms, plain.delays_ms + escalated_ms)

    def test_matches_detect_batch_behind_a_down_link(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        escalated_ms = np.full(6, 12.4)
        reference = copy.deepcopy(system)
        reference.reset()
        reference.topology.links[1].set_status("down")
        records = reference.detect_batch(2, windows[:6], escalated_ms=escalated_ms)

        system.reset()
        system.topology.links[1].set_status("down")
        result = system.detect_batch_columnar(
            2, windows[:6], with_confidence=True, escalated_ms=escalated_ms
        )
        system.topology.links[1].set_status("up")

        assert result.layer == 1  # served by the best reachable tier
        assert system.layer_counters[1].redirected == 6
        _assert_same_outcome(reference, records, system, result)
        # (uplink + execution + downlink) + escalated + retry, in that order.
        system.reset()
        at_edge = system.detect_batch_columnar(1, windows[:6])
        assert np.array_equal(result.delays_ms, (at_edge.delays_ms + escalated_ms) + 200.0)

    def test_matches_detect_batch_on_jittery_links(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        jittery = copy.deepcopy(system)
        for link in jittery.topology.links:
            link.jitter_ms = 0.25
        reference = copy.deepcopy(jittery)

        reference.reset()
        records = reference.detect_batch(2, windows[:8])

        jittery.reset()
        result = jittery.detect_batch_columnar(2, windows[:8], with_confidence=True)

        # Per-window jitter draws happen in the same order, so the delay
        # stream is bit-identical, not merely statistically equal.
        _assert_same_outcome(reference, records, jittery, result)
        assert len(set(result.delays_ms)) > 1  # jitter actually varied

    def test_confidence_skipped_by_default(self, univariate_hec):
        """Streaming never reads confidence, so the default skips computing it."""
        system, _deployments, _detectors, windows, _labels = univariate_hec
        reference = copy.deepcopy(system)
        reference.reset()
        records = reference.detect_batch(1, windows[:6])

        system.reset()
        lean = system.detect_batch_columnar(1, windows[:6])
        assert lean.confidents is None
        # The detection rule itself is unchanged by the lean path.
        assert np.array_equal(lean.predictions, [r.prediction for r in records])
        assert np.array_equal(lean.anomaly_scores, [r.anomaly_score for r in records])

    def test_empty_batch(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        system.reset()
        result = system.detect_batch_columnar(0, windows[:0])
        assert result.n == 0
        assert result.predictions.shape == (0,)
        assert system.layer_counters[0].requests == 0

    def test_shape_validation(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        with pytest.raises(ShapeError):
            system.detect_batch_columnar(0, windows[0])  # not a batch
        with pytest.raises(ShapeError):
            system.detect_batch_columnar(0, windows[:3], escalated_ms=np.zeros(2))


class TestDetectArrays:
    def test_matches_detect_for_fitted_detector(self, univariate_hec):
        _system, _deployments, detectors, windows, _labels = univariate_hec
        for detector in detectors.values():
            results = detector.detect(windows[:12])
            is_anomaly, confident, scores, fractions = detector.detect_arrays(
                windows[:12]
            )
            assert np.array_equal(is_anomaly, [r.is_anomaly for r in results])
            assert np.array_equal(confident, [r.confident for r in results])
            assert np.array_equal(scores, [r.anomaly_score for r in results])
            assert np.array_equal(
                fractions, [r.anomalous_point_fraction for r in results]
            )

    def test_base_fallback_agrees_with_detect(self, univariate_hec):
        """A subclass overriding only detect() still gets correct arrays."""
        from repro.detectors.base import AnomalyDetector

        _system, _deployments, detectors, windows, _labels = univariate_hec
        inner = next(iter(detectors.values()))

        class OnlyDetect(AnomalyDetector):
            def __init__(self):
                super().__init__(name="only-detect")

            def detect(self, batch):
                return inner.detect(batch)

        wrapped = OnlyDetect()
        is_anomaly, confident, scores, fractions = wrapped.detect_arrays(windows[:6])
        results = inner.detect(windows[:6])
        assert np.array_equal(is_anomaly, [r.is_anomaly for r in results])
        assert np.array_equal(confident, [r.confident for r in results])
        assert np.array_equal(scores, [r.anomaly_score for r in results])
        assert np.array_equal(
            fractions, [r.anomalous_point_fraction for r in results]
        )


class TestNoCopyFastPath:
    """Satellite: float64 batches the engine just stacked are never re-copied."""

    def test_float64_contiguous_passes_through(self):
        batch = np.random.default_rng(0).normal(size=(5, 8))
        assert _as_float64_batch(batch) is batch

    def test_other_dtypes_are_converted(self):
        batch = np.arange(10, dtype=np.float32).reshape(2, 5)
        converted = _as_float64_batch(batch)
        assert converted.dtype == np.float64
        assert not np.shares_memory(converted, batch)
        assert np.array_equal(converted, batch)

    def test_detect_batch_does_not_copy_float64_input(self, univariate_hec):
        system, _deployments, detectors, windows, _labels = univariate_hec
        batch = np.ascontiguousarray(windows[:3], dtype=np.float64)
        seen = {}
        detector = system.deployment_at(0).detector
        original = detector.detect_arrays

        def spy(arg, with_confidence=True):
            seen["windows"] = arg
            return original(arg, with_confidence=with_confidence)

        detector.detect_arrays = spy
        try:
            system.reset()
            system.detect_batch(0, batch)
        finally:
            del detector.detect_arrays
            system.reset()
        assert np.shares_memory(seen["windows"], batch)
