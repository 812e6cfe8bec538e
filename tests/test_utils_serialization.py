"""Tests for repro.utils.serialization."""

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json


class TestJson:
    def test_round_trip(self, tmp_path):
        payload = {"a": 1, "b": [1, 2, 3], "c": {"nested": "x"}}
        path = save_json(tmp_path / "doc.json", payload)
        assert load_json(path) == payload

    def test_numpy_values_converted(self, tmp_path):
        payload = {"scalar": np.float64(1.5), "array": np.arange(3), "flag": np.bool_(True)}
        path = save_json(tmp_path / "doc.json", payload)
        loaded = load_json(path)
        assert loaded["scalar"] == 1.5
        assert loaded["array"] == [0, 1, 2]
        assert loaded["flag"] is True

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_json(tmp_path / "absent.json")

    def test_parent_directories_created(self, tmp_path):
        path = save_json(tmp_path / "a" / "b" / "doc.json", {"x": 1})
        assert path.exists()


class TestArrays:
    def test_round_trip(self, tmp_path):
        arrays = {"w": np.random.default_rng(0).normal(size=(3, 4)), "b": np.zeros(4)}
        path = save_arrays(tmp_path / "weights.npz", arrays)
        loaded = load_arrays(path)
        assert set(loaded) == {"w", "b"}
        np.testing.assert_allclose(loaded["w"], arrays["w"])

    def test_extension_added(self, tmp_path):
        path = save_arrays(tmp_path / "weights", {"x": np.ones(2)})
        assert str(path).endswith(".npz")
        assert path.exists()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_arrays(tmp_path / "absent.npz")
