"""Packaging for the ``repro`` library: ``pip install .``.

There is no ``pyproject.toml``; this file is the whole build configuration.
The runtime needs only numpy; scipy, pytest and hypothesis are needed by
the tests alone.  The scenario goldens and the C kernel source ship as
package data, so an installed copy can check its goldens and compile its
kernels.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Design and synthesis of decimation filters for wideband "
                "delta-sigma ADCs (SOCC 2011 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={
        "repro.scenarios": ["goldens/*.json"],
        "repro._native": ["kernels.c"],
    },
    python_requires=">=3.10",
    install_requires=["numpy"],
)
