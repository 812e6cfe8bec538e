"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.bandit.reward import DelayCost, RewardFunction
from repro.data.preprocessing import StandardScaler
from repro.data.windowing import sliding_windows, window_labels
from repro.detectors.confidence import ConfidencePolicy
from repro.detectors.scoring import GaussianLogPDScorer
from repro.evaluation.metrics import accuracy_score, f1_score, precision_score, recall_score
from repro.fleet.metrics import StreamingMetrics
from repro.nn import activations
from repro.utils.rng import ensure_rng

# Reusable strategies -------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)

small_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 10), st.integers(1, 6)),
    elements=finite_floats,
)

binary_arrays = st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        arrays(np.int64, n, elements=st.integers(0, 1)),
        arrays(np.int64, n, elements=st.integers(0, 1)),
    )
)


class TestActivationProperties:
    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_softmax_is_probability_distribution(self, x):
        probabilities = activations.softmax(x)
        assert np.all(probabilities >= 0)
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0, atol=1e-9)

    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_sigmoid_bounded(self, x):
        y = activations.sigmoid(x)
        assert np.all((y >= 0.0) & (y <= 1.0))

    @given(small_matrices)
    @settings(max_examples=30, deadline=None)
    def test_relu_idempotent(self, x):
        once = activations.relu(x)
        np.testing.assert_array_equal(activations.relu(once), once)


class TestRewardProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_cost_in_unit_interval(self, delay, alpha):
        cost = DelayCost(alpha=alpha).batch(delay)
        assert 0.0 <= cost < 1.0

    @given(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_cost_monotone_in_delay(self, a, b):
        cost = DelayCost(alpha=0.0005)
        low, high = sorted((a, b))
        assert cost.batch(low) <= cost.batch(high) + 1e-12

    @given(st.booleans(), st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_reward_bounded(self, correct, delay):
        reward = RewardFunction().batch(correct, delay)
        assert -1.0 < reward <= 1.0
        if correct:
            assert reward > -0.0001
        else:
            assert reward <= 0.0


class TestMetricProperties:
    @given(binary_arrays)
    @settings(max_examples=50, deadline=None)
    def test_metrics_in_unit_interval(self, arrays_pair):
        predictions, labels = arrays_pair
        for metric in (accuracy_score, precision_score, recall_score, f1_score):
            value = metric(predictions, labels)
            assert 0.0 <= value <= 1.0

    @given(binary_arrays)
    @settings(max_examples=50, deadline=None)
    def test_f1_between_precision_and_recall_bounds(self, arrays_pair):
        predictions, labels = arrays_pair
        precision = precision_score(predictions, labels)
        recall = recall_score(predictions, labels)
        f1 = f1_score(predictions, labels)
        assert f1 <= max(precision, recall) + 1e-12
        assert f1 >= 0.0

    @given(arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 1)))
    @settings(max_examples=30, deadline=None)
    def test_perfect_predictions_maximise_accuracy(self, labels):
        assert accuracy_score(labels, labels) == 1.0


class TestScalerProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(4, 12), st.integers(2, 8)),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_transform_bounded_statistics(self, data):
        scaler = StandardScaler().fit(data)
        transformed = scaler.transform(data)
        # Mean is always (near) zero; std is 1 unless the data was constant.
        assert abs(transformed.mean()) < 1e-6 or data.std() < 1e-8
        assert transformed.std() <= 1.0 + 1e-6


class TestWindowingProperties:
    @given(
        st.integers(10, 60),
        st.integers(2, 10),
        st.integers(1, 10),
    )
    @settings(max_examples=50, deadline=None)
    def test_window_count_formula(self, length, window_size, stride):
        if window_size > length:
            return
        series = ensure_rng(0).normal(size=length)
        windows, starts = sliding_windows(series, window_size, stride)
        expected = (length - window_size) // stride + 1
        assert windows.shape == (expected, window_size)
        assert np.all(starts + window_size <= length)

    @given(st.integers(8, 40), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_window_labels_zero_when_no_anomaly(self, length, window_size):
        if window_size > length:
            return
        labels = np.zeros(length, dtype=int)
        _, starts = sliding_windows(np.zeros(length), window_size, window_size)
        assert window_labels(labels, starts, window_size).sum() == 0

    @given(st.integers(8, 40), st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_window_labels_one_when_all_anomalous(self, length, window_size):
        if window_size > length:
            return
        labels = np.ones(length, dtype=int)
        _, starts = sliding_windows(np.zeros(length), window_size, window_size)
        assert np.all(window_labels(labels, starts, window_size) == 1)


class TestScorerProperties:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_training_data_never_flagged(self, seed):
        errors = ensure_rng(seed).normal(size=(50, 2))
        scorer = GaussianLogPDScorer().fit(errors)
        assert not (scorer.log_probability_density(errors) < scorer.threshold).any()

    @given(st.integers(0, 1000), st.floats(min_value=5.0, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_distant_point_flagged(self, seed, distance):
        errors = ensure_rng(seed).normal(size=(100, 2))
        scorer = GaussianLogPDScorer().fit(errors)
        outlier = scorer.mean_[None, :] + distance * 10
        assert scorer.log_probability_density(outlier)[0] < scorer.threshold


class TestConfidenceProperties:
    @given(
        arrays(
            np.float64,
            st.integers(1, 50),
            elements=st.floats(min_value=-100.0, max_value=-0.01, allow_nan=False),
        ),
        st.floats(min_value=-50.0, max_value=-1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_anomaly_iff_any_point_below_threshold(self, scores, threshold):
        policy = ConfidencePolicy()
        is_anomaly, _confident, fraction = policy.evaluate_batch(scores[None, :], threshold)
        assert is_anomaly[0] == bool((scores < threshold).any())
        assert 0.0 <= fraction[0] <= 1.0


class TestDelayStatisticsProperties:
    """Fleet delay statistics are order-free functions of the windows."""

    TICKS, LAYERS = 4, 3

    @staticmethod
    def _fold(metrics, stream, rows):
        """Observe ``rows`` of the stream, one call per (tick, layer) group."""
        ticks, layers, predictions, labels, delays, keys = stream
        for tick, layer in sorted(set(zip(ticks[rows].tolist(), layers[rows].tolist()))):
            group = rows[(ticks[rows] == tick) & (layers[rows] == layer)]
            metrics.observe(
                tick, layer, predictions[group], labels[group], delays[group], keys[group]
            )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_split_gives_the_payload_of_one_fold(self, data):
        n = data.draw(st.integers(0, 60), label="n")
        capacity = data.draw(st.integers(1, 24), label="capacity")

        def column(elements):
            return np.array(
                data.draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.int64
            )

        stream = (
            column(st.integers(0, self.TICKS - 1)),
            column(st.integers(0, self.LAYERS - 1)),
            column(st.integers(0, 1)),
            column(st.integers(0, 1)),
            data.draw(arrays(np.float64, n, elements=st.floats(0.0, 1e4)), label="delays"),
            np.array(
                data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n,
                                   unique=True), label="keys"),
                dtype=np.int64,
            ),
        )
        shape = dict(ticks=self.TICKS, metrics_window=2, n_layers=self.LAYERS,
                     reservoir_size=capacity)
        whole = StreamingMetrics(**shape)
        self._fold(whole, stream, np.arange(n))

        # Any order of the rows, dealt to up to four shards, each fed in
        # batches, the shards merged in any order.
        order = np.array(data.draw(st.permutations(range(n)), label="order"), dtype=np.int64)
        shard_of = column(st.integers(0, 3))
        shards = []
        for shard in range(4):
            rows = order[shard_of[order] == shard]
            cuts = data.draw(st.lists(st.integers(0, rows.size), max_size=4), label="cuts")
            metrics = StreamingMetrics(**shape)
            for batch in np.split(rows, sorted(cuts)):
                self._fold(metrics, stream, batch)
            shards.append(metrics)
        shards = data.draw(st.permutations(shards), label="shard order")
        merged = StreamingMetrics.merge(shards)

        expected, payload = whole.to_payload(), merged.to_payload()
        assert sorted(payload) == sorted(expected)
        for key, value in expected.items():
            assert np.array_equal(payload[key], value), key
        quantiles = (0.0, 50.0, 90.0, 99.0, 100.0)
        np.testing.assert_array_equal(
            [merged.reservoir.percentile(q) for q in quantiles],
            [whole.reservoir.percentile(q) for q in quantiles],
        )
        if n <= capacity:
            # The sample is the whole stream.
            assert sorted(whole.reservoir.sample()[0].tolist()) == sorted(stream[4].tolist())
