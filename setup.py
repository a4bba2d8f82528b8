"""Package metadata: ``pip install -e .`` installs ``repro`` and its CLI.

A plain ``setup.py`` rather than a ``pyproject.toml`` build, so that the
editable install also works on offline machines without the ``wheel``
package, which the PEP 517 build path needs.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "version.py"
VERSION = re.search(
    r'__version__ = "([^"]+)"', VERSION_FILE.read_text(encoding="utf-8")
).group(1)

setup(
    name="repro-uncertain",
    version=VERSION,
    description="Space-efficient indexes for uncertain strings",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-uncertain = repro.cli:main"]},
)
