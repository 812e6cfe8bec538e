"""Tests for the detection kernel's array contract.

``HECSystem.detect_batch`` returns one :class:`BatchDetectionResult` of
aligned arrays: escalation and retry delays compose in a fixed float order,
failover serves the best reachable tier, jittery links draw per window in
request order, and confidence is computed only on request.  That every
detector's ``detect_arrays`` reproduces its ``detect`` is part of the detector
contract in ``test_detector_conformance.py``.
"""

import copy

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.hec.simulation import BatchDetectionResult, _as_float64_batch


class TestDetectBatch:
    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_escalated_delays_add_to_plain_delays(self, univariate_hec, layer):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        batch = windows[:10]
        escalated_ms = np.linspace(5.0, 50.0, 10)
        system.reset()
        plain = system.detect_batch(layer, batch, with_confidence=True)
        system.reset()
        result = system.detect_batch(
            layer, batch, with_confidence=True, escalated_ms=escalated_ms
        )
        assert isinstance(result, BatchDetectionResult)
        assert result.layer == layer and result.n == 10
        assert np.array_equal(result.predictions, plain.predictions)
        assert np.array_equal(result.confidents, plain.confidents)
        assert np.array_equal(result.anomaly_scores, plain.anomaly_scores)
        assert np.array_equal(result.delays_ms, plain.delays_ms + escalated_ms)

    def test_down_link_serves_the_best_reachable_tier(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        escalated_ms = np.full(6, 12.4)
        system.reset()
        system.topology.links[1].set_status("down")
        result = system.detect_batch(
            2, windows[:6], with_confidence=True, escalated_ms=escalated_ms
        )
        system.topology.links[1].set_status("up")

        assert result.layer == 1  # served by the best reachable tier
        assert result.n == 6
        # (uplink + execution + downlink) + escalated + retry, in that order.
        system.reset()
        at_edge = system.detect_batch(1, windows[:6], with_confidence=True)
        assert np.array_equal(result.delays_ms, (at_edge.delays_ms + escalated_ms) + 200.0)
        assert np.array_equal(result.confidents, at_edge.confidents)

    def test_jittery_links_draw_per_window_in_request_order(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        jittery = copy.deepcopy(system)
        for link in jittery.topology.links:
            link.jitter_ms = 0.25
        stepped_system = copy.deepcopy(jittery)

        jittery.reset()
        result = jittery.detect_batch(2, windows[:8])
        stepped_system.reset()
        stepped = [stepped_system.detect_batch(2, windows[i : i + 1]) for i in range(8)]

        # Per-window jitter draws happen in the same order, so the delay
        # stream is bit-identical, not merely statistically equal.
        assert np.array_equal(
            result.delays_ms, np.concatenate([r.delays_ms for r in stepped])
        )
        assert len(set(result.delays_ms)) > 1  # jitter actually varied
        # ...and leave every link's generator at the same position.
        for link_a, link_b in zip(jittery.topology.links, stepped_system.topology.links):
            assert link_a.snapshot() == link_b.snapshot()

    def test_confidence_skipped_by_default(self, univariate_hec):
        """Streaming never reads confidence, so the default skips computing it."""
        system, _deployments, _detectors, windows, _labels = univariate_hec
        system.reset()
        full = system.detect_batch(1, windows[:6], with_confidence=True)
        system.reset()
        lean = system.detect_batch(1, windows[:6])
        assert lean.confidents is None
        assert full.confidents.dtype == bool and full.confidents.shape == (6,)
        # The detection rule itself is unchanged by the lean path.
        assert np.array_equal(lean.predictions, full.predictions)
        assert np.array_equal(lean.anomaly_scores, full.anomaly_scores)
        assert np.array_equal(lean.delays_ms, full.delays_ms)

    def test_empty_batch(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        system.reset()
        result = system.detect_batch(0, windows[:0])
        assert result.n == 0
        assert result.predictions.shape == (0,)
        assert result.delays_ms.shape == (0,)

    def test_shape_validation(self, univariate_hec):
        system, _deployments, _detectors, windows, _labels = univariate_hec
        with pytest.raises(ShapeError):
            system.detect_batch(0, windows[0])  # not a batch
        with pytest.raises(ShapeError):
            system.detect_batch(0, windows[:3], escalated_ms=np.zeros(2))


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
