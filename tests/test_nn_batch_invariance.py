"""Inference rows do not depend on their batch: the pin behind regrouping rows.

The serving front door regroups each micro-batch's rows into per-tier
detection batches, and the autoencoder predicts a whole batch in one forward.
Both are output-preserving only because ``Dense.forward(training=False)``
gives every row the same bits whatever batch it sits in.  This is the
``TimeStepLSTM`` test idiom (one step at a time equals the whole sequence)
turned to the batch axis: each row computed alone, and each slice at offsets
0/1/5 of every size from 1 to 300, must equal its rows of the full batch
under ``assert_array_equal``, for every Dense layer a registered scenario
deploys (every detector tier and the policy network).
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.bandit.context import EncoderContextExtractor, UnivariateContextExtractor
from repro.bandit.policy_network import PolicyNetwork
from repro.data.mhealth import N_CHANNELS
from repro.experiments import SCENARIOS, get_scenario
from repro.experiments.runner import _build_detector
from repro.nn.layers.base import ROW_BLOCK, batch_invariant_matmul
from repro.nn.layers.dense import Dense

#: Rows of the full batch: the largest slice (300) at the largest offset (5).
FULL_ROWS = 305

#: Layers at least this large (``input_dim x units``: the paper-scale ones)
#: check every size up to 33, then every 13th, to stay fast.
_LARGE = 10_000


def _dense_layers(obj, seen, found):
    """Every built ``Dense`` reachable from ``obj`` through repro objects."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Dense):
        found.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _dense_layers(item, seen, found)
    elif type(obj).__module__.startswith("repro.") and hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            _dense_layers(value, seen, found)


def _deployment(spec):
    """What fixes a scenario's Dense shapes: window shape, detectors, policy."""
    data = spec.data
    if data.source == "power":
        window_shape = (7 * data.samples_per_day,)
    else:
        window_shape = (data.window_size, N_CHANNELS)
    return window_shape, spec.detectors, spec.topology.tier_names, spec.policy


def _dense_layers_of(window_shape, detector_specs, tier_names, policy_spec):
    """The Dense layers of one deployment, built but untrained."""
    detectors = []
    for layer, (det_spec, tier) in enumerate(zip(detector_specs, tier_names)):
        detector = _build_detector(det_spec, tier, window_shape, seed=layer)
        # Seq2seq models build on their first forward.
        detector.reconstruct(np.zeros((1,) + window_shape))
        detectors.append(detector)
    if policy_spec.context == "daily-stats":
        context = UnivariateContextExtractor(segments=policy_spec.context_segments)
    else:
        context = EncoderContextExtractor(detectors[0])
    policy = PolicyNetwork(context.context_dim, n_actions=len(detectors),
                           hidden_units=policy_spec.hidden_units)
    found = []
    _dense_layers([detectors, policy], set(), found)
    return found


@pytest.fixture(scope="module")
def deployed_layers():
    """One deployed Dense layer per (input_dim, units, activation)."""
    deployments = {_deployment(get_scenario(name)) for name in SCENARIOS.names()}
    layers = {}
    for deployment in deployments:
        for layer in _dense_layers_of(*deployment):
            layers.setdefault((layer.input_dim, layer.units, layer.activation.name), layer)
    return layers


def test_the_pin_covers_every_tier_and_the_policy(deployed_layers):
    shapes = {(k, n) for k, n, _ in deployed_layers}
    # Test-size and paper-scale AE tiers, the seq2seq projection, the policy.
    for shape in [(168, 12), (12, 168), (64, 32), (672, 201), (672, 512), (512, 256),
                  (400, N_CHANNELS), (28, 100), (100, 3), (100, 4), (50, 100)]:
        assert shape in shapes
    assert "softmax" in {activation for _, _, activation in deployed_layers}


def test_every_row_equals_its_row_of_the_full_batch(deployed_layers):
    rng = np.random.default_rng(0)
    for (input_dim, units, _), layer in sorted(deployed_layers.items()):
        x = rng.normal(size=(FULL_ROWS, input_dim))
        full = layer.forward(x)
        alone = [layer.forward(x[row:row + 1]) for row in range(FULL_ROWS)]
        assert_array_equal(np.concatenate(alone), full, err_msg=f"{layer.name}: rows alone")
        if input_dim * units < _LARGE:
            sizes = range(1, 301)
        else:
            sizes = [*range(1, 34), *range(34, 301, 13)]
        # ``np.array_equal`` is ``assert_array_equal``'s test (the inputs hold
        # no NaN) without its per-call cost; failures are named together.
        moved = [
            (offset, size)
            for offset in (0, 1, 5)
            for size in sizes
            if not np.array_equal(layer.forward(x[offset:offset + size]),
                                  full[offset:offset + size])
        ]
        assert not moved, f"{layer.name}: (offset, rows) slices that moved: {moved}"


class TestBatchInvariantMatmul:
    def test_equals_the_plain_product_up_to_rounding(self):
        rng = np.random.default_rng(1)
        kernel = rng.normal(size=(13, 9))
        for n in (0, 1, 7, ROW_BLOCK, 19):
            x = rng.normal(size=(n, 13))
            product = batch_invariant_matmul(x, kernel)
            assert product.shape == (n, 9)
            assert product.flags.c_contiguous
            np.testing.assert_allclose(product, x @ kernel, rtol=1e-12, atol=1e-12)

    def test_training_forward_keeps_the_plain_matmul(self):
        layer = Dense(5, name="d")
        layer.set_rng(0)
        layer.build(4)
        x = np.random.default_rng(2).normal(size=(3, 4))
        assert_array_equal(layer.forward(x, training=True),
                           x @ layer.params["kernel"] + layer.params["bias"])
