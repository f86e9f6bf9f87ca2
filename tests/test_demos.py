import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo.name == "04_pontryagin_cp2.py":
        assert "Pontryagin number: 3\n" in done.stdout
    if demo.name == "05_stiefel_whitney.py":
        assert "W_2: 9144 simplices, cycle: True, bounds: False\n" in done.stdout
