import os
import subprocess
import sys
from pathlib import Path

import moelab
import pytest

SRC = Path(moelab.__file__).resolve().parents[1]


@pytest.mark.parametrize("module, unwanted", [
    # the package re-exports nothing; callers import from its modules
    ("moelab", "(m for m in sys.modules if m.startswith('moelab.'))"),
    # compare_routers imports these itself; at module level they would add
    # some 30 modules to every command's start-up
    ("moelab.cli", "(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules)"),
], ids=["moelab", "moelab.cli"])
def test_import_loads_no_submodule(module, unwanted):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print(sorted{unwanted})"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
