"""A pytest plugin that lists every line of the ``bistellar`` package that
the test run never executes.

It traces the package's source files with ``sys.settrace`` (and
``threading.settrace``) from pytest's configuration to the end of the
run, then prints, per module, the lines that compile to bytecode but
never ran.  A run of such lines with no executed line between them is
printed as one range.  Code run in subprocesses (``tests/test_imports.py``,
the demos) is not seen.  From the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

The package is the ``bistellar`` found on ``sys.path``.  Tracing makes the
suite several times slower.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from pathlib import Path

_ran: dict[str, set[int]] = {}  # the package's files by real path: the lines run
_files: dict[str, set[int] | None] = {}  # co_filename -> its _ran entry, or None outside the package


def _code_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    out = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def _tracer(frame, event, arg):
    fn = frame.f_code.co_filename
    if fn not in _files:
        _files[fn] = _ran.get(os.path.realpath(fn))
    lines = _files[fn]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _ranges(executable: list[int], ran: set[int]) -> list[str]:
    """The unrun lines of ``executable`` (sorted), runs with no executed
    line between them joined as ``first-last``."""
    out, run = [], []
    for line in executable + [None]:
        if line is not None and line not in ran:
            run.append(line)
            continue
        if run:
            out.append(str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}")
            run = []
    return out


def pytest_configure(config):
    pkg = Path(importlib.util.find_spec("bistellar").origin).parent
    _ran.update((os.path.realpath(path), set()) for path in pkg.glob("*.py"))
    threading.settrace(_tracer)
    sys.settrace(_tracer)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, config):
    tr = terminalreporter
    tr.write_sep("-", "lines of bistellar never run")
    total = 0
    for path, ran in sorted(_ran.items()):
        executable = sorted(_code_lines(compile(Path(path).read_text(), path, "exec")))
        if spans := _ranges(executable, ran):
            total += len(set(executable) - ran)
            tr.write_line(f"{os.path.relpath(path)}: {', '.join(spans)}")
    tr.write_line(f"{total} executable lines never run")
