"""Shared utilities: RNG handling, validation, timing and serialization helpers."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_array,
    check_in,
)
from repro.utils.timer import SimulatedClock

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_array",
    "check_in",
    "SimulatedClock",
]
