"""Packaging metadata (the single source; there is no ``pyproject.toml``).

``pip install .`` installs the ``repro`` package from ``src/`` and the
``repro`` console script.  Offline, where pip cannot fetch a build backend,
use ``pip install --no-build-isolation .`` (needs ``setuptools`` and ``wheel``
already present).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Read the version without importing the package (its dependencies may not be
# installed yet when pip evaluates this file).
_VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(encoding="utf-8"),
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Reproduction of 'Contextual-Bandit Anomaly Detection for IoT Data in "
        "Distributed Hierarchical Edge Computing' (ICDCS 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
