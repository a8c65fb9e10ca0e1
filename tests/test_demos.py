"""Every script under demos/ runs to completion, quietly, against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    # a test run under python -O runs the demos under -O too, without their asserts
    optimize = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    proc = subprocess.run([sys.executable, *optimize, str(demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
