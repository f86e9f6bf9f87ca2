"""Every error type of the package is raised or caught by it: a type that
only ``errors`` names is dead, and a public failure must stay a typed
``BistellarError``."""

import ast
from pathlib import Path

import bistellar.errors as errors

PKG = Path(errors.__file__).parent


def _names_used(path: Path) -> set[str]:
    """The names and attributes the code of ``path`` reads (not its imports,
    comments or docstrings)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_error_type_is_used_outside_errors():
    types = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    }
    used = set().union(*(_names_used(p) for p in PKG.glob("*.py") if p.name != "errors.py"))
    assert "BistellarError" in types and len(types) > 10
    assert types <= used, sorted(types - used)
