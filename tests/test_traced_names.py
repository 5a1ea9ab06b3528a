"""Every function the benchmark's traced run wraps still exists.

``perfbench/tracing.py`` rebinds each ``(module, name)`` of its ``TRACED``
table at run time; a name deleted from the library would fail only there.
The table is read from the file by path, so the benchmark is not imported
as a package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
