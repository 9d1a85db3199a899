"""Setuptools entry point: the package's only build configuration.

A plain ``setup.py`` keeps the package installable in offline
environments whose setuptools/pip lack PEP 660 editable-wheel support (no
``wheel`` package available).  networkx is an optional extra, needed only
by ``SensorNetwork.to_networkx``: ``pip install '.[networkx]'``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "URCL: Unified Replay-based Continuous Learning for Spatio-Temporal "
        "Prediction on Streaming Data (ICDE 2024 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.12"],
    extras_require={"networkx": ["networkx>=3.0"]},
)
