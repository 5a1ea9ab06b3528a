import os
import subprocess
import sys
from pathlib import Path

import moelab

SRC = Path(moelab.__file__).resolve().parents[1]


def test_import_loads_no_submodule():
    # the package re-exports nothing; callers import from its modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, moelab; print(sorted(m for m in sys.modules if m.startswith('moelab.')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
