"""Lightweight argument-validation helpers used across the package."""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

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


def checked_dataclass_kwargs(cls, payload, where: str) -> dict:
    """``payload`` as kwargs for dataclass ``cls``, rejecting unknown keys.

    Shared by the ``from_dict`` constructors of the experiment- and
    fleet-spec trees (both deserialise frozen dataclasses from JSON payloads
    and must fail loudly on misspelled keys).
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(f"{where} must be a mapping, got {type(payload).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in {where}; valid keys: {sorted(allowed)}"
        )
    return dict(payload)


def check_binary_labels(labels: Any, name: str = "labels") -> np.ndarray:
    """Validate that ``labels`` contains only 0/1 values and return an int array."""
    arr = np.asarray(labels)
    if arr.size == 0:
        return arr.astype(int)
    unique = np.unique(arr)
    if not np.all(np.isin(unique, (0, 1))):
        raise ShapeError(f"{name} must be binary (0/1), got values {unique!r}")
    return arr.astype(int)
