"""Recorded goldens: compare a payload against a committed reference file.

A golden is the recorded output of a reference implementation that no longer
ships (see DESIGN.md, "Goldens").  ``name`` is a path under ``tests/goldens/``
ending in ``.npz`` (a flat ``{name: array}`` payload) or ``.json`` (a nested
JSON-ready payload such as ``FleetReport.to_dict()``).  Integers, booleans,
strings and ``None`` must match exactly; floats within ``RTOL``/``ATOL``.

``pytest --record-goldens`` rewrites the goldens whose payload no longer
matches (matching files are left byte-identical); without the flag a missing
golden fails the test — it is never recorded silently.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
RTOL = 1e-9
ATOL = 1e-12


def _assert_equal(expected, actual, where: str) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), (
            f"{where}: keys {sorted(actual)} != golden {sorted(expected)}"
        )
        for key, value in expected.items():
            _assert_equal(value, actual[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            f"{where}: length differs from golden ({len(expected)})"
        )
        for index, value in enumerate(expected):
            _assert_equal(value, actual[index], f"{where}[{index}]")
    elif isinstance(expected, np.ndarray):
        actual = np.asarray(actual)
        assert actual.shape == expected.shape, (
            f"{where}: shape {actual.shape} != golden {expected.shape}"
        )
        assert actual.dtype.kind == expected.dtype.kind, (
            f"{where}: dtype {actual.dtype} != golden {expected.dtype}"
        )
        if expected.dtype.kind == "f":
            np.testing.assert_allclose(
                actual, expected, rtol=RTOL, atol=ATOL, err_msg=where
            )
        else:
            np.testing.assert_array_equal(actual, expected, err_msg=where)
    elif isinstance(expected, float):
        assert isinstance(actual, float), f"{where}: {actual!r} is not a float"
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL, err_msg=where)
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != golden {expected!r}"
        )


def assert_matches_golden(name: str, payload, record: bool = False) -> None:
    """Assert ``payload`` equals the golden ``name`` (or record it)."""
    path = GOLDEN_DIR / name
    load, save = (
        (load_arrays, save_arrays) if path.suffix == ".npz" else (load_json, save_json)
    )
    if record:
        try:
            _assert_equal(load(path), payload, name)
        except (SerializationError, AssertionError):
            save(path, payload)
        return
    if not path.exists():
        pytest.fail(
            f"golden {name} is missing; record it on a trusted commit with "
            "'pytest --record-goldens'"
        )
    _assert_equal(load(path), payload, name)
