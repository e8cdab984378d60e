"""Packaging for ``repro``: ``pip install .`` from the repository root.

The package lives under ``src/`` and its version has one source,
``src/repro/_version.py``, which this script reads without importing the
package (an install must not need numpy before it has installed it).
"""

import os
import re

from setuptools import find_packages, setup

HERE = os.path.dirname(os.path.abspath(__file__))


def read_version() -> str:
    path = os.path.join(HERE, "src", "repro", "_version.py")
    with open(path, encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"$', handle.read(), re.M)
    if match is None:
        raise RuntimeError(f"no __version__ in {path}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description="Reproduction of Shin & Lee (1983), Analysis of Backward "
                "Error Recovery for Concurrent Processes with Recovery Blocks",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy.trapezoid is numpy 2 API.
    install_requires=["numpy>=2.0", "scipy"],
)
