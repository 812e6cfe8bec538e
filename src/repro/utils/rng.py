"""Random-number-generator helpers.

Every stochastic component of the library accepts either an integer seed, a
``numpy.random.Generator`` instance, or ``None``.  :func:`ensure_rng`
normalises these into a :class:`numpy.random.Generator` so that experiments
are reproducible when a seed is given and still convenient when it is not.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed-like value.

    Parameters
    ----------
    seed:
        ``None`` for a non-deterministic generator, an ``int`` seed, or an
        existing ``Generator`` (returned unchanged).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed)!r}"
    )
