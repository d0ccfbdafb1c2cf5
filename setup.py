"""Legacy setup shim.

The execution environment is offline and lacks the ``wheel`` package, so
``pip install -e .`` must take the legacy ``setup.py develop`` path.  The
package metadata below is the only copy (there is no ``pyproject.toml``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'An elastic job scheduler for HPC applications on "
        "the cloud' (SC Workshops '25)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
