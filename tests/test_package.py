"""Package metadata and the public surface removed in 2.0.0."""

import importlib
import re
from pathlib import Path

import pytest

import repro
import repro.core

SETUP_PY = Path(__file__).resolve().parent.parent / "setup.py"


def test_setup_version_matches_package_version():
    match = re.search(r'version="([^"]+)"', SETUP_PY.read_text())
    assert match is not None
    assert match.group(1) == repro.__version__


@pytest.mark.parametrize("name", ["Compiler", "CompilationResult"])
def test_retired_compile_entry_points_are_gone(name):
    # `from repro import Compiler` is an ImportError exactly when the
    # package has no such attribute (neither module defines __getattr__).
    assert not hasattr(repro, name)
    assert not hasattr(repro.core, name)
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.pipeline")

