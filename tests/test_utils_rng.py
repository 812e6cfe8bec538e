"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).random(5)
        b = ensure_rng(2).random(5)
        assert not np.allclose(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    @pytest.mark.parametrize("seed", ["not-a-seed", 1.5, [1, 2]], ids=["str", "float", "list"])
    def test_invalid_type_raises(self, seed):
        with pytest.raises(TypeError, match="seed must be"):
            ensure_rng(seed)

    def test_numpy_integer_seed_accepted(self):
        seed = np.int64(7)
        a = ensure_rng(seed).random(3)
        b = ensure_rng(7).random(3)
        np.testing.assert_array_equal(a, b)
