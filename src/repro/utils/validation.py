"""Lightweight argument-validation helpers used across the package.

Payload validation (unknown, missing or mistyped keys of a spec or report)
lives in the one JSON codec, :class:`repro.utils.serialization.JsonRecord`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError


def check_positive(value: float, name: str) -> float:
    """Raise :class:`ConfigurationError` unless ``value`` is strictly positive."""
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Raise :class:`ConfigurationError` unless ``value`` is >= 0 and finite."""
    if not np.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Raise :class:`ConfigurationError` unless ``value`` lies in [0, 1]."""
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_binary_labels(labels: Any, name: str = "labels") -> np.ndarray:
    """Validate that ``labels`` contains only 0/1 values and return an int array."""
    arr = np.asarray(labels)
    if arr.size == 0:
        return arr.astype(int)
    unique = np.unique(arr)
    if not np.all(np.isin(unique, (0, 1))):
        raise ShapeError(f"{name} must be binary (0/1), got values {unique!r}")
    return arr.astype(int)
