"""Every library name the benchmark uses still exists and takes its call.

``perfbench/tracing.py`` rebinds each ``(module, name)`` of its ``TRACED``
table at run time, and ``perfbench/workloads.py`` calls ``toymoe.train``
and reads ``defaults`` directly; a name deleted or a parameter renamed in
the library would fail only there.  Both files are read by path, so the
benchmark is not imported as a package.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from moelab import defaults, toymoe

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_workloads_calls_and_reads_resolve():
    tree = ast.parse(WORKLOADS.read_text())
    modules = {"defaults": defaults, "toymoe": toymoe}
    train_calls, missing = [], []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "toymoe"
                and node.func.attr == "train"):
            train_calls.append(node)
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{node.value.id}.{node.attr}")
    assert missing == []
    # probe_metrics: five positional arguments and six keywords
    assert len(train_calls) == 1
    call = train_calls[0]
    keywords = [kw.arg for kw in call.keywords]
    assert len(call.args) == 5
    assert keywords == ["epochs", "lr", "loss_cfg", "seed", "check_gradients", "grad_check_tol"]
    inspect.signature(toymoe.train).bind(*call.args, **dict.fromkeys(keywords))
