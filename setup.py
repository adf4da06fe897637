"""Setup shim: lets ``pip install -e .`` work without the ``wheel`` package
(this offline environment has setuptools 65 but no PEP 660 backend deps).

NumPy is deliberately *not* a core requirement: only the columnar vector
tier (``engine="vector"``) needs it, and the engine
registry degrades to the scalar lanes when it is absent.  Install the
``vector`` extra to opt in, or the ``test`` extra to run the suite
(which skips the vector tests when numpy is missing but exercises them
everywhere CI runs).
"""

from setuptools import find_packages, setup

setup(
    name="snap-repro",
    version="2.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx",
        "scipy",
    ],
    extras_require={
        "vector": ["numpy"],
        "test": [
            "numpy",
            "hypothesis",
            "pytest",
            "pytest-benchmark",
        ],
    },
)
