"""Shared utilities: RNG handling, validation and serialization helpers."""

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive, check_non_negative, check_probability

__all__ = [
    "ensure_rng",
    "check_positive",
    "check_non_negative",
    "check_probability",
]
