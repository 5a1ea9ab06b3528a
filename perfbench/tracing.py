"""Span tracing of moelab by rebinding its public functions at runtime.

Nothing in the library changes: :func:`installed` replaces each traced
function with a wrapper on its defining module and on every ``moelab``
module that imported the name (``moelab.toymoe.erf``, ``moelab.cli.main``
and so on), and puts the originals back on exit.  Spans (name, start, end,
parent) stay in memory until the run writes them out.  A layer's self time
is its spans' duration minus the time of their traced children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def by_name(self) -> dict[str, dict]:
        """Per span name: summed self time, summed duration, call count."""
        agg: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for (name, start, end, _), self_s in zip(self.spans, self.self_times()):
            a = agg[name]
            a["self_s"] += self_s
            a["total_s"] += end - start
            a["calls"] += 1
        return dict(agg)

    def write(self, path: Path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.write_text(json.dumps({
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
            "counters": dict(self.counters),
        }) + "\n")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(args, kwargs) -> int:
    return int(getattr(_arg(args, kwargs, 0, "x"), "size", 1))


def _devices(args, kwargs) -> int:
    return _arg(args, kwargs, 1, "topology").total_devices


def _count_elems(counter: str):
    def hook(counters, args, kwargs, result):
        counters[counter] += _size(args, kwargs)
    return hook


def _count_rounds(counters, args, kwargs, result):
    counters["commsim.alltoall_cost.rounds"] += _devices(args, kwargs) - 1


def _count_plan_bytes(counters, args, kwargs, result):
    counters["commsim.plan_bytes"] += sum(p.volume.nbytes for p in result[1].phases)


def _by_devices(prefix: str):
    return lambda args, kwargs: f"{prefix}.D{_devices(args, kwargs)}"


# (defining module, function, span name or namer, counter hook)
TRACED = [
    ("moelab.cli", "main", "cli.main", None),
    ("moelab.toymoe", "train", "toymoe.train", None),
    ("moelab.toymoe", "gelu", "toymoe.gelu", _count_elems("toymoe.gelu.elems")),
    ("moelab.toymoe", "gelu_grad", "toymoe.gelu_grad", _count_elems("toymoe.gelu_grad.elems")),
    ("moelab.toymoe", "make_synthetic_corpus", "toymoe.make_synthetic_corpus", None),
    ("moelab.special", "erf", "special.erf", _count_elems("special.erf.elems")),
    ("moelab.special", "erfc", "special.erfc", None),
    ("moelab.special", "reg_incomplete_beta", "special.reg_incomplete_beta", None),
    ("moelab.router", "softmax", "router.softmax", None),
    ("moelab.router", "hash_route", "router.hash_route", None),
    ("moelab.router", "gate_scores", "router.gate_scores", None),
    ("moelab.router", "route_top1", "router.route_top1", None),
    ("moelab.router", "apply_capacity", "router.apply_capacity", None),
    ("moelab.losses", "aux_loss", "losses.aux_loss", None),
    ("moelab.losses", "locality_loss", "losses.locality_loss", None),
    ("moelab.losses", "mean_cross_entropy", "losses.mean_cross_entropy", None),
    ("moelab.losses", "grad_check", "losses.grad_check", None),
    ("moelab.capacity", "ec_min", "capacity.ec_min", None),
    ("moelab.capacity", "cap_area_identity_check", "capacity.cap_area_identity_check", None),
    ("moelab.capacity", "mc_p_delta", "capacity.mc_p_delta", None),
    ("moelab.capacity", "mc_assignment_fractions", "capacity.mc_assignment_fractions", None),
    ("moelab.capacity", "sample_unit_sphere", "capacity.sample_unit_sphere", None),
    ("moelab.capacity", "cosine_histograms", "capacity.cosine_histograms", None),
    ("moelab.commsim", "alltoall_cost", _by_devices("commsim.alltoall_cost"), _count_rounds),
    ("moelab.commsim", "groupwise_alltoall_cost", _by_devices("commsim.groupwise_alltoall_cost"),
     _count_plan_bytes),
    ("moelab.commsim", "locality_fraction", "commsim.locality_fraction", None),
    ("moelab.commsim", "build_volume_matrix", "commsim.build_volume_matrix", None),
    ("moelab.commsim", "compare_strategies", "commsim.compare_strategies", None),
    ("moelab.verify", "check_uniform_balance", "verify.uniform_balance", None),
    ("moelab.verify", "check_cap_probability_mc", "verify.cap_probability_mc", None),
    ("moelab.verify", "check_cap_identity", "verify.cap_identity", None),
    ("moelab.verify", "check_capacity_bounds", "verify.capacity_bounds", None),
    ("moelab.verify", "check_grad", "verify.grad_check", None),
]


def _wrap(tracer: Tracer, fn, name, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.counters, args, kwargs, result)
        return result
    return traced


def moelab_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "moelab" or n.startswith("moelab."))]


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function, in every moelab module holding it,
    for the duration of the block."""
    for module, _, _, _ in TRACED:
        importlib.import_module(module)
    modules = moelab_modules()
    patches = []
    try:
        for module, fname, name, hook in TRACED:
            original = getattr(sys.modules[module], fname)
            wrapper = _wrap(tracer, original, name, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        patches.append((m, attr, original))
        yield patches
    finally:
        for m, attr, original in reversed(patches):
            setattr(m, attr, original)


# Per-layer metrics and the workload whose end-to-end numbers each should move.
# The suffix says how the value is read from the trace: .self_s is summed self
# time, .calls the span count, .s (verify suites) the summed duration; the
# counters (.elems, .rounds, plan_bytes) come from the wrapper hooks, and
# toymoe.probe.* is measured outside the trace.
LAYER_METRICS = {
    "cli.main.self_s": "cluster",
    "toymoe.train.self_s": "toy-train",
    "toymoe.train.calls": "toy-train",
    "toymoe.gelu.self_s": "toy-train",
    "toymoe.gelu.elems": "toy-train",
    "toymoe.gelu_grad.self_s": "toy-train",
    "toymoe.gelu_grad.elems": "toy-train",
    "toymoe.make_synthetic_corpus.self_s": "toy-train",
    "toymoe.probe.hash_s": "toy-train",
    "toymoe.probe.switch_s": "toy-train",
    "toymoe.probe.loc_s": "toy-train",
    "special.erf.self_s": "toy-train",
    "special.erf.calls": "toy-train",
    "special.erf.elems": "toy-train",
    "special.erfc.self_s": "theory",
    "special.erfc.calls": "theory",
    "special.reg_incomplete_beta.self_s": "theory",
    "special.reg_incomplete_beta.calls": "theory",
    "router.softmax.self_s": "toy-train",
    "router.softmax.calls": "toy-train",
    "router.hash_route.self_s": "toy-train",
    "router.gate_scores.self_s": "theory",
    "router.route_top1.self_s": "theory",
    "router.apply_capacity.self_s": "theory",
    "losses.aux_loss.self_s": "toy-train",
    "losses.aux_loss.calls": "toy-train",
    "losses.locality_loss.self_s": "toy-train",
    "losses.locality_loss.calls": "toy-train",
    "losses.mean_cross_entropy.self_s": "toy-train",
    "losses.mean_cross_entropy.calls": "toy-train",
    "losses.grad_check.self_s": "theory",
    "capacity.ec_min.self_s": "theory",
    "capacity.ec_min.calls": "theory",
    "capacity.cap_area_identity_check.self_s": "theory",
    "capacity.mc_p_delta.self_s": "theory",
    "capacity.mc_assignment_fractions.self_s": "theory",
    "capacity.sample_unit_sphere.self_s": "theory",
    "capacity.cosine_histograms.self_s": "theory",
    "commsim.alltoall_cost.D16.self_s": "cluster",
    "commsim.alltoall_cost.D256.self_s": "cluster",
    "commsim.alltoall_cost.D1024.self_s": "cluster",
    "commsim.alltoall_cost.rounds": "cluster",
    "commsim.groupwise_alltoall_cost.D16.self_s": "cluster",
    "commsim.groupwise_alltoall_cost.D256.self_s": "cluster",
    "commsim.groupwise_alltoall_cost.D1024.self_s": "cluster",
    "commsim.plan_bytes": "cluster",
    "commsim.locality_fraction.self_s": "toy-train",
    "commsim.locality_fraction.calls": "toy-train",
    "commsim.build_volume_matrix.self_s": "toy-train",
    "commsim.compare_strategies.self_s": "toy-train",
    "verify.uniform_balance.s": "theory",
    "verify.cap_probability_mc.s": "theory",
    "verify.cap_identity.s": "theory",
    "verify.capacity_bounds.s": "theory",
    "verify.grad_check.s": "theory",
    "trace_overhead_s": None,
}


def unit(metric: str) -> str:
    if metric.endswith((".calls", ".elems", ".rounds")):
        return "count"
    if metric.endswith("plan_bytes"):
        return "B"
    return "s"


def layer_values(tracer: Tracer, extra: dict) -> dict[str, float]:
    """Every metric of LAYER_METRICS from the trace, ``extra`` supplying the
    ones measured outside it; a layer the workload never entered reads 0."""
    agg = tracer.by_name()
    out = {}
    for metric in LAYER_METRICS:
        if metric in extra:
            value = extra[metric]
        elif metric in tracer.counters:
            value = tracer.counters[metric]
        else:
            prefix, _, kind = metric.rpartition(".")
            field = {"self_s": "self_s", "calls": "calls", "s": "total_s"}.get(kind)
            value = agg[prefix][field] if field and prefix in agg else 0
        out[metric] = value
    return out
