"""The narrative demos run to completion against the current library API.

Each demo runs as a subprocess with the moelab under test on its path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import moelab

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(moelab.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["capacity_theory.py", "comm_model.py", "routing_balance.py",
                                  "toy_training.py"])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
