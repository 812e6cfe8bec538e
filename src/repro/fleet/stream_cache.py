"""What is left of the stream caches: nothing is cached.

Arrivals are a pure function of ``(seed, device block, tick)`` (see
:mod:`repro.fleet.devices`).  ``clear()`` and ``cache_stats()`` survive only
because ``benchmarks/perf/workloads.py`` calls them; the next ``benchmark``
PR removes those calls and this file."""


def clear() -> None:
    """Does nothing."""


def cache_stats():
    """``(0, 0)``: there are no cache entries."""
    return (0, 0)
