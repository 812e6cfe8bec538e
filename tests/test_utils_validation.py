"""Tests for repro.utils.validation."""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.utils.validation import (
    check_binary_labels,
    check_non_negative,
    check_positive,
    check_probability,
    checked_dataclass_kwargs,
)


class TestScalarChecks:
    def test_check_positive_accepts(self):
        assert check_positive(1.5, "x") == 1.5

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ConfigurationError):
            check_positive(value, "x")

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    def test_check_non_negative_rejects(self, value):
        with pytest.raises(ConfigurationError):
            check_non_negative(value, "x")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_check_probability_accepts(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_check_probability_rejects(self, value):
        with pytest.raises(ConfigurationError):
            check_probability(value, "p")

    def test_check_probability_returns_a_float(self):
        assert type(check_probability(np.int64(1), "p")) is float

    @pytest.mark.parametrize("check", [check_positive, check_non_negative, check_probability])
    def test_message_names_the_argument(self, check):
        with pytest.raises(ConfigurationError, match="dropout_rate"):
            check(-5.0, "dropout_rate")


@dataclasses.dataclass(frozen=True)
class _Node:
    size: int = 1
    name: str = "n"


class TestCheckedDataclassKwargs:
    def test_known_keys_pass_through(self):
        assert checked_dataclass_kwargs(_Node, {"size": 3}, "node") == {"size": 3}

    def test_unknown_key_lists_the_valid_ones(self):
        with pytest.raises(ConfigurationError, match=r"\['sizes'\] in node; valid keys: \['name', 'size'\]"):
            checked_dataclass_kwargs(_Node, {"sizes": 3}, "node")

    @pytest.mark.parametrize("payload", [[("size", 3)], "size=3", None])
    def test_non_mapping_rejected(self, payload):
        with pytest.raises(ConfigurationError, match="node must be a mapping"):
            checked_dataclass_kwargs(_Node, payload, "node")


class TestOtherChecks:
    def test_binary_labels_ok(self):
        out = check_binary_labels([0, 1, 1, 0])
        assert out.dtype == int

    def test_binary_labels_rejects_other_values(self):
        with pytest.raises(ShapeError):
            check_binary_labels([0, 2])

    def test_binary_labels_empty(self):
        assert check_binary_labels([]).size == 0

    def test_binary_labels_keep_their_shape(self):
        assert check_binary_labels([[0, 1], [1, 1]]).shape == (2, 2)

    def test_binary_labels_bool_input(self):
        out = check_binary_labels(np.array([True, False]))
        assert out.tolist() == [1, 0]
