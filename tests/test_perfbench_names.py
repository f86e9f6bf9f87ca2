"""The benchmark's tracer wraps library functions by name and skips a name
the library no longer has, so a rename would read as a zero counter; every
name it lists must still resolve."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.FUNCTIONS
    for modname, attr in spans.FUNCTIONS:
        obj = importlib.import_module("bistellar." + modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (modname, attr)
