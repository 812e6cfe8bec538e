"""Reference-vs-subject pins for the streaming tick's detection chain.

Each test builds the subject (the production context statistics, 1-D logPD
scorer, in-place activations and ``Dense`` forward) and a test-local
reference written the way the code used to be (``np.concatenate`` of
``min``/``max``/``mean``/``std``, the three-operand ``einsum``, allocating
activations), then compares them with ``assert_array_equal``: the chain is
rewritten for speed only, so every output must agree to the last bit.
"""

import copy

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.bandit.context import UnivariateContextExtractor
from repro.detectors.scoring import GaussianLogPDScorer
from repro.experiments import ExperimentRunner, apply_overrides, get_scenario
from repro.fleet.devices import WindowPool
from repro.fleet.engine import FleetEngine
from repro.nn.activations import get_activation
from repro.nn.layers.dense import Dense

# -- test-local references ---------------------------------------------------------


def reference_raw_features(extractor, windows):
    windows = np.asarray(windows, dtype=float)
    if windows.ndim == 1:
        windows = windows[None, :]
    n_windows, window_size = windows.shape
    segmented = windows.reshape(n_windows, extractor.segments, window_size // extractor.segments)
    return np.concatenate(
        [
            segmented.min(axis=2),
            segmented.max(axis=2),
            segmented.mean(axis=2),
            segmented.std(axis=2),
        ],
        axis=1,
    )


def reference_extract(extractor, windows):
    features = reference_raw_features(extractor, windows)
    if not extractor.normalize:
        return features
    return (features - extractor._mean) / extractor._std


def reference_fit_statistics(extractor, windows):
    features = reference_raw_features(extractor, windows)
    std = features.std(axis=0)
    return features.mean(axis=0), np.where(std < 1e-8, 1.0, std)


def reference_logpd(scorer, errors):
    errors = scorer._as_2d(errors)
    centred = errors - scorer.mean_
    mahalanobis = np.einsum("ij,jk,ik->i", centred, scorer.precision_, centred)
    dimension = errors.shape[1]
    return -0.5 * (mahalanobis + scorer.log_det_ + dimension * np.log(2.0 * np.pi))


def _reference_softmax(x):
    shifted = x - np.max(x, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


#: Each activation's allocating forward as it was before every one took
#: ``out=`` (sigmoid already did, and is unchanged).
REFERENCE_ACTIVATIONS = {
    "linear": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": get_activation("sigmoid").forward,
    "tanh": np.tanh,
    "softmax": _reference_softmax,
}


def reference_dense_forward(layer, inputs, training=False):
    inputs = np.asarray(inputs, dtype=float)
    layer.ensure_built(inputs.shape[1])
    pre_activation = inputs @ layer.params["kernel"]
    if layer.use_bias:
        pre_activation = pre_activation + layer.params["bias"]
    output = REFERENCE_ACTIVATIONS[layer.activation.name](pre_activation)
    layer._cache_input = inputs if training else None
    layer._cache_output = output if training else None
    return output


# -- context statistics ------------------------------------------------------------


def _windows(n, segments, segment_length=24, seed=0):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    return rng.normal(rng.normal(), 1.0, size=(n, segments * segment_length)) * scale


class TestContextStatistics:
    @pytest.mark.parametrize("n", [0, 1, 200])
    @pytest.mark.parametrize("segments", [1, 7])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_matches_concatenate_reference(self, n, segments, normalize):
        extractor = UnivariateContextExtractor(segments=segments, normalize=normalize)
        extractor.fit(_windows(64, segments, seed=1))
        windows = _windows(n, segments, seed=2)
        assert_array_equal(extractor.extract(windows), reference_extract(extractor, windows))

    @pytest.mark.parametrize("segments", [1, 7])
    @pytest.mark.parametrize("segment_length", [1, 3, 96, 257])
    def test_raw_features_at_other_segment_lengths(self, segments, segment_length):
        extractor = UnivariateContextExtractor(segments=segments, normalize=False)
        windows = _windows(50, segments, segment_length, seed=segment_length)
        assert_array_equal(
            extractor._raw_features(windows), reference_raw_features(extractor, windows)
        )

    def test_strided_and_one_dimensional_windows(self):
        extractor = UnivariateContextExtractor(segments=7, normalize=False)
        wide = _windows(30, 14, seed=3)
        strided = wide[:, ::2]
        assert_array_equal(
            extractor._raw_features(strided), reference_raw_features(extractor, strided)
        )
        assert_array_equal(
            extractor._raw_features(wide[0, ::2]), reference_raw_features(extractor, wide[0, ::2])
        )

    def test_constant_segments_have_zero_std(self):
        extractor = UnivariateContextExtractor(segments=7, normalize=False)
        windows = np.repeat(np.arange(7.0), 24)[None, :] * np.array([[1.0], [0.5], [-3.25]])
        features = extractor._raw_features(windows)
        assert_array_equal(features, reference_raw_features(extractor, windows))
        assert_array_equal(features[:, 21:], 0.0)

    def test_fit_statistics_match(self):
        extractor = UnivariateContextExtractor(segments=7)
        windows = _windows(200, 7, seed=4)
        windows[:, :24] = 2.5  # one constant day: its std column falls back to 1
        extractor.fit(windows)
        mean, std = reference_fit_statistics(extractor, windows)
        assert_array_equal(extractor._mean, mean)
        assert_array_equal(extractor._std, std)
        assert std[21] == 1.0

    def test_nan_windows_propagate_identically(self):
        extractor = UnivariateContextExtractor(segments=7, normalize=False)
        windows = _windows(5, 7, seed=5)
        windows[1, 30] = np.nan  # day 1 of window 1
        windows[3, :] = np.nan
        features = extractor._raw_features(windows)
        # NaN lands in the same cells, and every other cell is equal.
        assert_array_equal(features, reference_raw_features(extractor, windows))
        assert np.isnan(features[1, [1, 8, 15, 22]]).all()
        assert np.isfinite(np.delete(features[1], [1, 8, 15, 22])).all()

    def test_signed_zero_windows(self):
        """Mean and std keep their bits; min/max agree by value, not by sign.

        The sum and the ``_var`` steps run in the reference's order, so the
        mean and std columns are identical to the bit (``-0.0`` included).
        Min and max reduce in a different order, and ``+0.0``/``-0.0`` compare
        equal, so a day mixing them may report either zero: that sign is the
        one bit the code does not guarantee.
        """
        extractor = UnivariateContextExtractor(segments=7, normalize=False)
        windows = np.zeros((3, 7 * 24))
        windows[0] = -0.0
        windows[1, ::2] = -0.0
        windows[2, ::3] = -0.0
        features = extractor._raw_features(windows)
        reference = reference_raw_features(extractor, windows)
        assert_array_equal(features, reference)  # by value: -0.0 == 0.0
        assert features[:, 14:].tobytes() == reference[:, 14:].tobytes()
        # An all-negative-zero day has no choice to make.
        assert features[0, :14].tobytes() == reference[0, :14].tobytes()


# -- Gaussian logPD ----------------------------------------------------------------


class TestLogPD:
    @pytest.mark.parametrize("seed", range(5))
    def test_one_dimensional_scorer_matches_einsum(self, seed):
        rng = np.random.default_rng(seed)
        normal = rng.normal(rng.normal(), 10.0 ** rng.uniform(-4, 2), size=200)
        scorer = GaussianLogPDScorer().fit(normal)
        assert scorer.threshold_ == float(np.min(reference_logpd(scorer, normal)))
        errors = rng.normal(rng.normal(), 10.0 ** rng.uniform(-4, 3), size=(1000, 1))
        assert_array_equal(
            scorer.log_probability_density(errors), reference_logpd(scorer, errors)
        )
        assert_array_equal(
            scorer.log_probability_density(errors[:, 0]), reference_logpd(scorer, errors)
        )

    def test_eighteen_dimensions_unchanged(self):
        rng = np.random.default_rng(18)
        scorer = GaussianLogPDScorer().fit(rng.normal(size=(300, 18)) @ rng.normal(size=(18, 18)))
        errors = rng.normal(size=(500, 18))
        assert_array_equal(
            scorer.log_probability_density(errors), reference_logpd(scorer, errors)
        )

    def test_empty_batch(self):
        scorer = GaussianLogPDScorer().fit(np.arange(10.0))
        assert scorer.log_probability_density(np.empty(0)).shape == (0,)


# -- activations and Dense ---------------------------------------------------------


def _pre_activations(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=(64, 13))
    x[0, :4] = [0.0, -0.0, 40.0, -40.0]
    return x


class TestInPlaceActivations:
    @pytest.mark.parametrize("name", sorted(REFERENCE_ACTIVATIONS))
    def test_out_equals_allocating_form(self, name):
        activation = get_activation(name)
        x = _pre_activations()
        reference = REFERENCE_ACTIVATIONS[name](x.copy())
        assert_array_equal(activation.forward(x.copy()), reference)
        buffer = np.empty_like(x)
        assert activation.forward(x, out=buffer) is buffer
        assert_array_equal(buffer, reference)
        aliased = x.copy()
        assert activation.forward(aliased, out=aliased) is aliased
        assert aliased.tobytes() == reference.tobytes()


class TestInPlaceDense:
    @pytest.mark.parametrize("activation", sorted(REFERENCE_ACTIVATIONS))
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_forward_and_gradients_match_reference(self, activation, use_bias):
        subject = Dense(9, activation=activation, use_bias=use_bias, name="d")
        subject.set_rng(3)
        subject.build(13)
        if use_bias:
            subject.params["bias"][:] = np.linspace(-1.0, 1.0, 9)
        reference = copy.deepcopy(subject)
        x = _pre_activations(1)
        assert_array_equal(subject.forward(x), reference_dense_forward(reference, x))
        grad = np.random.default_rng(2).normal(size=(64, 9))
        output = subject.forward(x, training=True)
        assert_array_equal(output, reference_dense_forward(reference, x, training=True))
        assert_array_equal(subject.backward(grad), reference.backward(grad))
        for name, buffer in subject.gradient_buffers().items():
            assert_array_equal(buffer, reference.gradient_buffers()[name])


# -- the whole tick ----------------------------------------------------------------

DRIFT_TINY = {
    "data.weeks": "10", "detectors.0.epochs": "3",
    "detectors.1.epochs": "3", "detectors.2.epochs": "3",
    "policy.episodes": "3",
    "fleet.n_devices": "40", "fleet.ticks": "12",
    "fleet.metrics_window": "4", "fleet.arrival_rate": "1.0",
    "fleet.mutators.0.drift_per_tick": "0.08",
}


def test_fleet_report_equals_reference_chain(monkeypatch):
    """A drifting fleet streamed through the reference chain gives an equal report.

    The report holds decisions, counts and delays, so this catches a change
    that flips an action or a verdict anywhere in the chain; a last-bit
    change that flips none is caught by the stage tests above, not here.
    """
    spec = apply_overrides(get_scenario("fleet-1k-drift"), DRIFT_TINY)
    runner = ExperimentRunner(spec)
    for stage in ("prepare_data", "fit_detectors", "deploy", "train_policy"):
        getattr(runner, stage)()
    state = runner.state
    assert isinstance(state.context_extractor, UnivariateContextExtractor)
    kwargs = dict(
        system=state.system,
        policy=state.policy,
        context_extractor=state.context_extractor,
        spec=spec.fleet,
        pool=WindowPool.from_labeled(state.standardized_all),
        master_seed=spec.seed,
        name=spec.name,
        tier_names=spec.topology.tier_names,
    )
    subject = FleetEngine(**kwargs).run()
    monkeypatch.setattr(UnivariateContextExtractor, "extract", reference_extract)
    monkeypatch.setattr(GaussianLogPDScorer, "log_probability_density", reference_logpd)
    monkeypatch.setattr(Dense, "forward", reference_dense_forward)
    reference = FleetEngine(**kwargs).run()
    assert reference.n_windows > 0
    assert reference == subject
