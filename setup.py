"""Package metadata for the ``repro`` simulator.

All metadata lives here (there is no pyproject.toml).  The version is
read from ``__version__`` in ``src/repro/__init__.py`` as text, so
building never imports the package.  An offline install (pip builds a
wheel, so it needs setuptools and wheel installed):

    pip install --no-build-isolation --no-deps .

Without ``wheel``, setuptools alone installs it:
``python setup.py install --root DIR``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$',
                     _INIT.read_text(encoding="utf-8"), re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
