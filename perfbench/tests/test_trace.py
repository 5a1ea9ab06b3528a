"""Tests of the benchmark itself: tracing, failure accounting, artifact checks
and the BENCHMARK.json contract.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The traced passes run the real workloads at seed 0 and take about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Call, CheckFailed, Step  # noqa: E402

SEED = 0
COUNT_UNITS = ("count", "B")


def traced_pass(name: str, work: Path):
    workload = WORKLOADS[name]()
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    plan = workload.make_plan(SEED, inputs)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        it = run.run_iteration(workload, plan, inputs, 0, work / "out", tracer)
    extra = workload.probe_metrics(plan, repeats=1) if hasattr(workload, "probe_metrics") else {}
    return it, tracer, tracing.layer_values(tracer, extra)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def two_traced_passes(request, tmp_path_factory):
    name = request.param
    return name, [traced_pass(name, tmp_path_factory.mktemp(f"{name}-{k}")) for k in range(2)]


def test_traced_pass_is_correct(two_traced_passes):
    _, passes = two_traced_passes
    for it, _, _ in passes:
        assert it.ok, [(c.argv[:2], c.status, c.message) for c in it.calls if c.status != "ok"]


def test_self_times_sum_to_traced_wall(two_traced_passes):
    _, passes = two_traced_passes
    for it, tracer, _ in passes:
        roots = [i for i, s in enumerate(tracer.spans) if s[3] == -1]
        assert roots == [0] and tracer.spans[0][0] == "workload"
        assert math.isclose(sum(tracer.self_times()), it.wall_s, rel_tol=1e-9)
        for name, start, end, parent in tracer.spans[1:]:
            assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2], name


def test_every_layer_metric_moves_on_its_workload(two_traced_passes):
    """A zero here means a rebinding was missed (or the layer left the workload)."""
    name, passes = two_traced_passes
    values = passes[0][2]
    mine = [m for m, w in tracing.LAYER_METRICS.items() if w == name]
    assert mine
    assert [m for m in mine if not values[m] > 0] == []


def test_counts_repeat_exactly(two_traced_passes):
    _, passes = two_traced_passes
    counts = [m for m in tracing.LAYER_METRICS if tracing.unit(m) in COUNT_UNITS]
    first, second = ({m: p[2][m] for m in counts} for p in passes)
    assert first == second


def test_rebinding_reaches_every_importer_and_is_undone():
    import moelab.cli
    import moelab.special
    import moelab.toymoe

    originals = {(mod, fn): getattr(sys.modules[mod], fn) for mod, fn, _, _ in tracing.TRACED}
    with tracing.installed(tracing.Tracer()):
        left = [(m.__name__, attr) for m in tracing.moelab_modules() for attr, v in vars(m).items()
                if any(v is o for o in originals.values())]
        assert left == []
        assert moelab.toymoe.erf is not originals[("moelab.special", "erf")]
        assert moelab.cli.main is not originals[("moelab.cli", "main")]
    assert all(getattr(sys.modules[mod], fn) is o for (mod, fn), o in originals.items())
    assert moelab.toymoe.erf is moelab.special.erf


def test_failed_step_is_counted_not_timed(tmp_path):
    """At seed 6 the loc run's start-of-run gradient probe fails (a known
    defect): the call is a failure of kind error and gives no step time."""
    workload = WORKLOADS["toy-train"]()
    it = run.run_iteration(workload, workload.make_plan(6, tmp_path), tmp_path, 0, tmp_path / "out")
    train = it.calls[0]
    assert train.argv[:3] == ["train-toy", "--router", "loc"]
    assert train.status == "error" and "AssertionError" in train.message
    assert run.fastest([it], "step")["step1_s"] is None and not it.ok


class Flaky:
    """One call that raises in the library at the pass indices listed."""

    name = "flaky"

    def __init__(self, failing):
        self.failing = failing

    def make_plan(self, seed, inputs):
        return {"seed": seed}

    def steps(self, plan, inputs, iteration, out):
        argv = ["fail" if iteration in self.failing else "pass"]
        return [Step("step1_s", [Call("part_s", argv, lambda rc, _: None)])]


def _fake_main(argv):
    if argv == ["fail"]:
        raise AssertionError("probe failed")
    return 0


def test_traced_run_reports_only_a_fully_successful_pass(tmp_path, monkeypatch):
    import moelab.cli

    monkeypatch.setattr(moelab.cli, "main", _fake_main)
    monkeypatch.setattr(run, "OUT", tmp_path)
    res = run.measure_traced(Flaky({0, 1}), SEED, tmp_path / "work")
    statuses = [[c.status for c in it.calls] for it in res["iterations"]]
    assert statuses == [["error"], ["error"], ["ok"], ["ok"], ["ok"]]
    assert None not in res["metrics"].values()
    assert res["metrics"]["cli.main.self_s"] > 0

    res = run.measure_traced(Flaky(set(range(run.TRACE_ATTEMPTS))), SEED, tmp_path / "work2")
    assert len(res["iterations"]) == run.TRACE_ATTEMPTS
    assert set(res["metrics"].values()) == {None}
    assert run.report("flaky", SEED, 1, {}, res)["correct"] is False


def test_blas_threads_are_pinned_whatever_the_caller_sets(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run.limit_blas_threads()
    assert {v: run.os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")} == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize("dim", [256, 257, 4096])
def test_tail_reference_matches_the_series_where_both_hold(dim):
    delta = np.linspace(3.0, 3.5, 50) / math.sqrt(dim)
    series, tail = oracles.two_cap_probability(delta, dim), oracles.two_cap_tail(delta, dim)
    assert np.allclose(tail, series, rtol=1e-8, atol=0.0)


def test_grid_check_catches_a_small_relative_error_in_the_tail(tmp_path):
    from moelab import cli

    theory = WORKLOADS["theory"]()
    dim = 256
    spec = f"{3.0 / math.sqrt(dim)!r}:{5.0 / math.sqrt(dim)!r}:50"
    path = tmp_path / "grid.csv"
    assert cli.main(["capacity", "--grid", spec, "--dim", str(dim), "--experts", "16", "--seed", str(SEED),
                     "--out", str(path)]) == 0
    theory._check_grid(0, path, dim, spec, SEED)
    rows = path.read_text().splitlines()
    cells = rows[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-7))
    path.write_text("\n".join(rows[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(CheckFailed, match="tail p_delta"):
        theory._check_grid(0, path, dim, spec, SEED)


def test_silent_no_op_and_wrong_artifacts_are_caught(tmp_path, monkeypatch):
    import moelab.cli
    import moelab.commsim

    workload = WORKLOADS["cluster"]()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    plan = workload.make_plan(SEED, inputs)

    monkeypatch.setattr(moelab.cli, "main", lambda argv: 0)
    it = run.run_iteration(workload, plan, inputs, 0, tmp_path / "noop")
    assert {c.status for c in it.calls} == {"no-op"}
    monkeypatch.undo()

    real = moelab.commsim.alltoall_cost
    monkeypatch.setattr(moelab.commsim, "alltoall_cost", lambda v, t: real(v, t) * 1.01)
    monkeypatch.setattr(moelab.cli, "alltoall_cost", moelab.commsim.alltoall_cost)
    it = run.run_iteration(workload, plan, inputs, 0, tmp_path / "wrong")
    assert {c.status for c in it.calls} == {"wrong"}


def test_check_failure_kinds():
    with pytest.raises(CheckFailed) as info:
        WORKLOADS["theory"]()._check_verify(0, "", SEED)
    assert info.value.kind == "no-op"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theory", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (m, tracing.unit(m)) for m in tracing.LAYER_METRICS]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25


def test_fastest_sums_each_calls_best_successful_run():
    layout = [("step1_s", "a_s"), ("step1_s", "b_s"), ("step2_s", "c_s")]

    def iteration(seconds, statuses):
        return run.Iteration(0, sum(seconds), 0.0, [run.CallResult(step, part, [], t, 0, status)
                                                    for (step, part), t, status in zip(layout, seconds, statuses)])

    passes = [iteration([3.0, 1.0, 5.0], ["ok", "ok", "error"]),
              iteration([2.0, 4.0, 9.0], ["ok", "ok", "ok"]),
              iteration([1.0, 0.5, 1.0], ["error", "ok", "error"])]
    assert run.fastest(passes, "step") == {"step1_s": 2.0 + 0.5, "step2_s": 9.0}
    assert run.fastest(passes, "part") == {"a_s": 2.0, "b_s": 0.5, "c_s": 9.0}
    assert run.fastest(passes[2:], "step") == {"step1_s": None, "step2_s": None}
