"""Every module of the package imports first and alone, in a fresh
interpreter, so an import cycle between two modules fails here instead of
hiding behind the order in which the package's ``__init__`` imports them."""

import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "bistellar"
MODULES = sorted(p.stem for p in PKG.glob("*.py") if p.stem != "__init__")

# ``__init__`` imports every module, so an empty package with the same path
# stands in for it
_IMPORT_ALONE = """
import importlib, sys, types
pkg = types.ModuleType("bistellar")
pkg.__path__ = [sys.argv[1]]
sys.modules["bistellar"] = pkg
importlib.import_module("bistellar." + sys.argv[2])
"""


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALONE, str(PKG), module], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
