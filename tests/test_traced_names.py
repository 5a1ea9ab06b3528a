"""Every library name the benchmark uses still exists and takes its call.

``perfbench/tracing.py`` rebinds each ``(module, name)`` of its ``TRACED``
table at run time, and ``perfbench/workloads.py`` calls ``toymoe.train``
and reads ``defaults`` directly; a name deleted or a parameter renamed in
the library would fail only there.  ``workloads.py`` also restates some
library policies and constants, which must not drift from the library's.
Both files are read by path, so the benchmark is not imported as a package.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from moelab import commsim, defaults, toymoe
from moelab.losses import LossConfig

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


def test_compare_losses_match_the_benchmarks_copy():
    # perfbench/workloads.py::probe_metrics restates this policy instead of
    # reading it: hash and switch at alpha = mu = 0, loc at
    # defaults.DEFAULT_TRAIN_LOSSES.  A change here has to move that copy
    # with it, in a change to the benchmark.
    zero = LossConfig(alpha=0.0, mu=0.0)
    assert toymoe.COMPARE_LOSSES == {"hash": zero, "switch": zero, "loc": defaults.DEFAULT_TRAIN_LOSSES}


def test_cost_constants_match_the_benchmarks_copies():
    # perfbench/workloads.py::_check_compare recomputes the compare CSV's
    # modeled compute and visible communication from its own copies of
    # these constants.  A change here has to move them with it, in a
    # change to the benchmark.
    names = ("DEVICE_FLOPS", "OVERLAP_RATIO")
    copies = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(WORKLOADS.read_text()).body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id in names
    }
    assert copies == {name: getattr(commsim, name) for name in names}
