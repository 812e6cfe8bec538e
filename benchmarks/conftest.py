"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  The heavy
artefacts (trained experiments) are session-scoped: they are built once with the
fast configuration and reused by every benchmark in the session.  Result
tables are also written to ``benchmarks/results/`` so they can be inspected
after the run and copied into EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make src/ importable when the package is not installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import ExperimentRunner, get_scenario  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_result(name: str, text: str) -> Path:
    """Persist a benchmark's textual output under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def univariate_result():
    """A fast end-to-end run of the univariate (power / autoencoder) track."""
    return ExperimentRunner(get_scenario("univariate-power")).run()


@pytest.fixture(scope="session")
def multivariate_result():
    """A fast end-to-end run of the multivariate (MHEALTH / seq2seq) track."""
    return ExperimentRunner(get_scenario("multivariate-mhealth")).run()
