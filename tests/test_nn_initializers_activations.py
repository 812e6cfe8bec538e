"""Tests for repro.nn.initializers and repro.nn.activations."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import activations, initializers


def _draw(name, shape, seed):
    return initializers.get_initializer(name)(shape, np.random.default_rng(seed))


class TestInitializers:
    @pytest.mark.parametrize("name", ["zeros", "glorot_uniform", "orthogonal"])
    def test_shapes_respected(self, name):
        array = _draw(name, (6, 8), seed=0)
        assert array.shape == (6, 8)

    def test_zeros(self):
        assert np.all(_draw("zeros", (3,), seed=0) == 0.0)

    def test_glorot_uniform_bounds(self):
        array = _draw("glorot_uniform", (100, 50), seed=0)
        limit = np.sqrt(6.0 / 150.0)
        assert np.all(np.abs(array) <= limit + 1e-12)

    def test_orthogonal_columns_orthonormal_tall(self):
        array = _draw("orthogonal", (10, 4), seed=0)
        gram = array.T @ array
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_orthogonal_rows_orthonormal_wide(self):
        array = _draw("orthogonal", (4, 10), seed=0)
        gram = array @ array.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_orthogonal_flattens_trailing_dims(self):
        array = _draw("orthogonal", (4, 2, 3), seed=0)
        assert array.shape == (4, 2, 3)
        flat = array.reshape(4, 6)
        np.testing.assert_allclose(flat @ flat.T, np.eye(4), atol=1e-8)

    def test_glorot_uniform_fans_in_over_leading_dims(self):
        array = _draw("glorot_uniform", (20, 5, 10), seed=0)
        limit = np.sqrt(6.0 / (100 + 10))
        assert np.all(np.abs(array) <= limit) and np.abs(array).max() > 0.9 * limit

    def test_orthogonal_is_contiguous(self):
        array = _draw("orthogonal", (4, 16), seed=0)
        assert array.flags["C_CONTIGUOUS"]

    def test_deterministic_with_seed(self):
        a = _draw("glorot_uniform", (5, 5), seed=3)
        b = _draw("glorot_uniform", (5, 5), seed=3)
        np.testing.assert_array_equal(a, b)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            initializers.get_initializer("unknown")

    def test_callable_passthrough(self):
        custom = lambda shape, rng: np.full(shape, 7.0)  # noqa: E731
        assert initializers.get_initializer(custom) is custom

    def test_1d_fan(self):
        array = _draw("glorot_uniform", (10,), seed=0)
        assert array.shape == (10,)


def _masked_sigmoid(x):
    """The piecewise sigmoid as it stood before PR 16 (boolean-mask gathers and scatters)."""
    out = np.empty_like(x, dtype=float)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


class TestActivations:
    def test_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(activations.relu(x), [0.0, 0.0, 3.0])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-50, 50, 101)
        y = activations.sigmoid(x)
        assert np.all((y >= 0) & (y <= 1))
        np.testing.assert_allclose(y + activations.sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_extreme_values_stable(self):
        y = activations.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 800.0])
    def test_sigmoid_equals_masked_formulation(self, scale):
        """Bit for bit, so weights fitted through the old kernel do not move."""
        rng = np.random.default_rng(int(scale * 1000))
        for shape in ((8, 64), (1, 192), (7, 3), (5,)):
            x = rng.normal(size=shape) * scale
            np.testing.assert_array_equal(activations.sigmoid(x), _masked_sigmoid(x))

    def test_sigmoid_equals_masked_formulation_on_special_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 745.2, -745.2, 1e-320])
        np.testing.assert_array_equal(activations.sigmoid(x), _masked_sigmoid(x))

    def test_sigmoid_on_non_contiguous_slice_and_into_out_buffer(self):
        block = np.random.default_rng(3).normal(size=(6, 4, 16)) * 5.0
        for x in (block[:, 2, 4:12], block[::2, :, 3], block.T[5]):
            assert not x.flags["C_CONTIGUOUS"]
            expected = _masked_sigmoid(x)
            np.testing.assert_array_equal(activations.sigmoid(x), expected)
            out = np.full((2,) + x.shape, -1.0)
            target = out[1]
            assert activations.sigmoid.forward(x, out=target) is target
            np.testing.assert_array_equal(target, expected)
            np.testing.assert_array_equal(out[0], -1.0)
        strided_out = np.zeros((6, 3, 8))
        activations.sigmoid.forward(block[:, 2, 4:12], out=strided_out[:, 1, :])
        np.testing.assert_array_equal(strided_out[:, 1, :], _masked_sigmoid(block[:, 2, 4:12]))
        in_place = block[:, 2, 4:12].copy()
        assert activations.sigmoid.forward(in_place, out=in_place) is in_place
        np.testing.assert_array_equal(in_place, _masked_sigmoid(block[:, 2, 4:12]))

    def test_sigmoid_of_scalars_and_integer_arrays(self):
        np.testing.assert_array_equal(activations.sigmoid(-1.5), _masked_sigmoid(np.array(-1.5)))
        ints = np.arange(-4, 5)
        np.testing.assert_array_equal(activations.sigmoid(ints), _masked_sigmoid(ints.astype(float)))

    def test_tanh_matches_numpy(self):
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(activations.tanh(x), np.tanh(x))

    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(4, 5)) * 10
        y = activations.softmax(x)
        np.testing.assert_allclose(y.sum(axis=1), 1.0)

    def test_softmax_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(activations.softmax(x), activations.softmax(x + 100.0))

    @pytest.mark.parametrize("name", ["linear", "relu", "sigmoid", "tanh", "softmax"])
    def test_backward_matches_finite_difference(self, name):
        activation = activations.get_activation(name)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        # Keep ReLU away from its kink to avoid spurious finite-difference error.
        if name == "relu":
            x = np.where(np.abs(x) < 0.1, 0.5, x)
        upstream = rng.normal(size=(3, 4))
        output = activation.forward(x)
        analytic = activation.backward(output, upstream)
        eps = 1e-6
        numeric = np.zeros_like(x)
        for index in np.ndindex(x.shape):
            perturbed = x.copy()
            perturbed[index] += eps
            plus = np.sum(activation.forward(perturbed) * upstream)
            perturbed[index] -= 2 * eps
            minus = np.sum(activation.forward(perturbed) * upstream)
            numeric[index] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)

    def test_get_activation_none_is_linear(self):
        assert activations.get_activation(None).name == "linear"

    def test_get_activation_passthrough(self):
        assert activations.get_activation(activations.relu) is activations.relu

    def test_unknown_activation_raises(self):
        with pytest.raises(ConfigurationError):
            activations.get_activation("swishish")
