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


# modules that ``dataclasses`` pulls in, which the package's records do not need
_SLOW = ("dataclasses", "inspect", "ast", "dis", "tokenize")
_LOADED = "import sys; sys.path.insert(0, sys.argv[1]); import bistellar; print(*sorted(set(sys.argv[2:]) & set(sys.modules)))"


def test_package_import_loads_no_dataclasses():
    """``import bistellar`` in a fresh interpreter without ``site`` loads
    neither ``dataclasses`` nor ``inspect``: its records are named tuples
    and small classes."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED, str(PKG.parent), *_SLOW], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALONE, str(PKG), module], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
