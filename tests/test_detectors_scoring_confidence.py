"""Tests for the Gaussian logPD scorer and the confidence rules."""

import numpy as np
import pytest

from repro.detectors.confidence import ConfidencePolicy
from repro.detectors.scoring import GaussianLogPDScorer
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError


class TestGaussianScorer:
    def test_fit_univariate_statistics(self):
        rng = np.random.default_rng(0)
        errors = rng.normal(loc=0.5, scale=2.0, size=5000)
        scorer = GaussianLogPDScorer().fit(errors)
        assert scorer.mean_[0] == pytest.approx(0.5, abs=0.1)
        assert scorer.covariance_[0, 0] == pytest.approx(4.0, rel=0.1)

    def test_logpd_matches_scipy(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(1)
        errors = rng.normal(size=(500, 3))
        scorer = GaussianLogPDScorer(covariance_regularization=1e-9).fit(errors)
        test_points = rng.normal(size=(10, 3))
        reference = multivariate_normal(
            mean=scorer.mean_, cov=scorer.covariance_
        ).logpdf(test_points)
        np.testing.assert_allclose(
            scorer.log_probability_density(test_points), reference, rtol=1e-6
        )

    def test_threshold_is_training_minimum(self):
        rng = np.random.default_rng(2)
        errors = rng.normal(size=(200, 2))
        scorer = GaussianLogPDScorer().fit(errors)
        scores = scorer.log_probability_density(errors)
        assert scorer.threshold == pytest.approx(scores.min())

    def test_no_training_point_is_outlier(self):
        rng = np.random.default_rng(3)
        errors = rng.normal(size=(100, 2))
        scorer = GaussianLogPDScorer().fit(errors)
        assert not (scorer.log_probability_density(errors) < scorer.threshold).any()

    def test_far_point_is_outlier(self):
        rng = np.random.default_rng(4)
        errors = rng.normal(size=(300, 2))
        scorer = GaussianLogPDScorer().fit(errors)
        assert scorer.log_probability_density(np.array([[50.0, -50.0]]))[0] < scorer.threshold

    def test_higher_density_near_mean(self):
        rng = np.random.default_rng(5)
        errors = rng.normal(size=(300, 2))
        scorer = GaussianLogPDScorer().fit(errors)
        near = scorer.log_probability_density(scorer.mean_[None, :])[0]
        far = scorer.log_probability_density(scorer.mean_[None, :] + 5.0)[0]
        assert near > far

    def test_scoring_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GaussianLogPDScorer().log_probability_density(np.zeros((1, 2)))

    def test_dimension_mismatch_rejected(self):
        scorer = GaussianLogPDScorer().fit(np.random.default_rng(0).normal(size=(50, 3)))
        with pytest.raises(ShapeError):
            scorer.log_probability_density(np.zeros((2, 4)))

    def test_needs_two_samples(self):
        with pytest.raises(ShapeError):
            GaussianLogPDScorer().fit(np.zeros((1, 2)))

    def test_3d_errors_rejected(self):
        with pytest.raises(ShapeError):
            GaussianLogPDScorer().fit(np.zeros((4, 3, 2)))

    def test_regularizer_keeps_degenerate_covariance_invertible(self):
        errors = np.zeros((50, 2))
        errors[:, 0] = np.random.default_rng(0).normal(size=50)
        # Second channel is constant -> singular covariance without regularisation.
        scorer = GaussianLogPDScorer(covariance_regularization=1e-6).fit(errors)
        assert np.all(np.isfinite(scorer.log_probability_density(errors)))

    def test_state_round_trip(self):
        rng = np.random.default_rng(6)
        errors = rng.normal(size=(100, 2))
        scorer = GaussianLogPDScorer().fit(errors)
        clone = GaussianLogPDScorer.from_state(scorer.get_state())
        test = rng.normal(size=(10, 2))
        np.testing.assert_allclose(
            clone.log_probability_density(test), scorer.log_probability_density(test)
        )
        assert clone.threshold == pytest.approx(scorer.threshold)

    def test_invalid_regularization(self):
        with pytest.raises(ConfigurationError):
            GaussianLogPDScorer(covariance_regularization=0.0)


def _verdict(policy, scores, threshold):
    """The rules applied to one window: ``evaluate_batch`` on a one-row matrix."""
    is_anomaly, confident, fraction = policy.evaluate_batch(np.asarray(scores)[None, :], threshold)
    return bool(is_anomaly[0]), bool(confident[0]), float(fraction[0])


class TestConfidencePolicy:
    def test_defaults_match_paper(self):
        policy = ConfidencePolicy()
        assert policy.strong_score_multiplier == 2.0
        assert policy.anomalous_fraction == 0.05

    def test_normal_window_confident(self):
        policy = ConfidencePolicy()
        scores = np.full(100, -5.0)
        is_anomaly, confident, fraction = _verdict(policy, scores, -10.0)
        assert not is_anomaly
        assert confident
        assert fraction == 0.0

    def test_normal_window_not_confident_near_threshold(self):
        # normal_margin > 1 marks near-threshold windows as unconfident.
        policy = ConfidencePolicy(normal_margin=0.5)
        scores = np.full(10, -8.0)  # above threshold (-10) but below 0.5*threshold (-5)
        is_anomaly, confident, _ = _verdict(policy, scores, -10.0)
        assert not is_anomaly
        assert not confident

    def test_anomaly_detected_when_any_point_below_threshold(self):
        policy = ConfidencePolicy()
        scores = np.array([-5.0, -11.0, -5.0])
        is_anomaly, _, fraction = _verdict(policy, scores, -10.0)
        assert is_anomaly
        assert fraction == pytest.approx(1 / 3)

    def test_strongly_anomalous_point_gives_confidence(self):
        policy = ConfidencePolicy(strong_score_multiplier=2.0, anomalous_fraction=0.5)
        scores = np.concatenate([np.full(99, -5.0), [-25.0]])  # one very strong outlier
        is_anomaly, confident, _ = _verdict(policy, scores, -10.0)
        assert is_anomaly and confident

    def test_high_fraction_gives_confidence(self):
        policy = ConfidencePolicy(strong_score_multiplier=100.0, anomalous_fraction=0.05)
        scores = np.concatenate([np.full(80, -5.0), np.full(20, -11.0)])
        is_anomaly, confident, fraction = _verdict(policy, scores, -10.0)
        assert is_anomaly and confident
        assert fraction == pytest.approx(0.2)

    def test_weak_sparse_anomaly_not_confident(self):
        policy = ConfidencePolicy(strong_score_multiplier=2.0, anomalous_fraction=0.05)
        scores = np.concatenate([np.full(99, -5.0), [-11.0]])  # barely below threshold, 1 %
        is_anomaly, confident, _ = _verdict(policy, scores, -10.0)
        assert is_anomaly and not confident

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            ConfidencePolicy(strong_score_multiplier=0.0)
        with pytest.raises(ConfigurationError):
            ConfidencePolicy(anomalous_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ConfidencePolicy(normal_margin=-1.0)

    def test_empty_scores(self):
        is_anomaly, confident, fraction = _verdict(ConfidencePolicy(), np.array([]), -10.0)
        assert not is_anomaly
        assert fraction == 0.0
