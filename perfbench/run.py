"""Benchmark of the moelab command-line workflows.

Run from the repository root:

    python3 perfbench/run.py --workload toy-train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Workloads (see workloads.py): ``toy-train``, ``theory``, ``cluster``, or
``all`` to run each in its own process and print one table.  Every CLI call
goes through ``moelab.cli.main(argv)`` in this process, is timed alone, and
has its exit code and artifacts checked against references.

``--trace 0`` runs a fixed number of passes over the workload's steps,
about ``--seconds`` long.  A step's time is the sum of its calls' fastest
successful runs; a failed call is counted, never timed.  ``setup_s`` is
the median of ``SETUP_REPEATS`` fresh interpreters that import moelab and
make the inputs, spread over the run.  ``--trace 1`` runs
one pass untraced, traced and untraced again, and reports the per-layer
metrics of tracing.LAYER_METRICS.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, the
environment, every call and (traced) the spans go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
NAMES = ("toy-train", "theory", "cluster")
SETUP_REPEATS = 5
BLAS_THREADS = 1
# Past this many seconds of iterating, stop even without a fully successful
# iteration, so a run always ends well inside three minutes.
ITERATE_LIMIT_S = 120.0
# Pass indices a traced run tries before it gives up on a successful triple.
TRACE_ATTEMPTS = 8
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "step1_s": "s", "step2_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def limit_blas_threads() -> int:
    """Pin BLAS/OpenMP to BLAS_THREADS threads; must run before numpy is
    imported.  Returns the number of CPUs this process may use.

    The toy matrices are small, so more threads buy little, and one thread
    keeps the timings independent of how busy the other CPUs are.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def import_moelab():
    """Import moelab from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "moelab" / "__init__.py").is_file():
        raise BenchError(f"no moelab sources under {src}")
    sys.path.insert(0, str(src))
    import moelab
    if Path(moelab.__file__).resolve().parent != (src / "moelab").resolve():
        raise BenchError(f"imported moelab from {moelab.__file__}, not from {src}")
    return moelab


def blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def environment(nproc: int) -> dict:
    import numpy as np
    import moelab
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
        "blas_threads_set": BLAS_THREADS, "blas_threads": blas_threads(), "nproc": nproc, "cpu": cpu,
        "moelab": moelab.__version__,
    }


# --- running CLI calls -------------------------------------------------------------


@dataclass
class CallResult:
    step: str
    part: str
    argv: list[str]
    seconds: float
    rc: int | None
    status: str = "ok"  # ok, error, no-op or wrong
    message: str = ""


@dataclass
class Iteration:
    index: int
    wall_s: float
    peak_rss_mb: float  # high-water mark of this process at the end of the timed pass
    calls: list[CallResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status == "ok" for c in self.calls)


def run_iteration(workload, plan: dict, inputs: Path, index: int, out: Path, tracer=None,
                  after_call=None) -> Iteration:
    """Run one pass over the workload's steps, then check every call.

    Calls are timed alone; checks run after the timed pass.  With a tracer,
    the pass is the root span ``workload`` and each step a child span.
    ``after_call`` runs between calls, outside their timing.
    """
    from moelab import cli
    from workloads import CheckFailed

    out.mkdir(parents=True)
    steps = workload.steps(plan, inputs, index, out)
    raw = []
    paused = 0.0  # time spent in after_call, not part of the pass
    root = tracer.open("workload") if tracer else None
    start = time.perf_counter()
    for step in steps:
        span = tracer.open(f"step.{step.metric}") if tracer else None
        for call in step.calls:
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(call.argv)
                except Exception as exc:  # a traceback escaping main is a failed call
                    rc, error = None, exc
                seconds = time.perf_counter() - t0
            raw.append((step, call, CallResult(step.metric, call.part, call.argv, seconds, rc),
                        stdout.getvalue(), stderr.getvalue(), error))
            if after_call:
                t0 = time.perf_counter()
                after_call()
                paused += time.perf_counter() - t0
        if tracer:
            tracer.close(span)
    wall = time.perf_counter() - start - paused
    if tracer:
        tracer.close(root)
        wall = tracer.duration(root)

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    it = Iteration(index, wall, rss)
    for step, call, res, stdout, stderr, error in raw:
        if error is not None:
            res.status = "error"
            res.message = "".join(traceback.format_exception_only(type(error), error)).strip()
        else:
            try:
                call.check(res.rc, stdout)
            except CheckFailed as failed:
                res.status, res.message = failed.kind, str(failed)
            except Exception as exc:  # an artifact the check could not even parse
                res.status, res.message = "wrong", f"unreadable artifact: {exc!r}"
            if res.status != "ok" and stderr.strip():
                res.message += f" [stderr: {stderr.strip()[-300:]}]"
        it.calls.append(res)
    shutil.rmtree(out)
    return it


# --- the two kinds of run ----------------------------------------------------------------


class SetupProbes:
    """Times fresh interpreters that import moelab and make the inputs.

    The machine's speed drifts over seconds, so the SETUP_REPEATS probes are
    spread over the run: the first before any call (its inputs are the
    run's), then one after any call once ``interval`` seconds have passed
    since the last, and whatever is left at the end.
    """

    def __init__(self, name: str, seed: int, work: Path, interval: float):
        self.name, self.seed, self.work, self.interval = name, seed, work, interval
        self.times: list[float] = []
        self.last = 0.0

    def run_one(self) -> Path:
        inputs = self.work / f"inputs{len(self.times)}"
        inputs.mkdir(parents=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(inputs),
                "--workload", self.name, "--seed", str(self.seed)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.last = time.perf_counter()
        self.times.append(self.last - start)
        if proc.returncode != 0:
            raise BenchError(f"input set-up failed: {proc.stderr.strip()[-500:]}")
        return inputs

    def spare(self):
        shutil.rmtree(self.run_one())

    def maybe(self):
        if len(self.times) < SETUP_REPEATS and time.perf_counter() - self.last >= self.interval:
            self.spare()

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self.spare()


def fastest(iterations: list[Iteration], key: str) -> dict[str, float | None]:
    """Per step (``key="step"``) or part (``"part"``): the sum over its calls
    of each call's fastest successful run, or None if a call never succeeded.

    Call k of every pass is the same command (for toy-train, at that pass's
    seed), so its fastest run is the one least disturbed by other work.
    """
    out: dict[str, float | None] = {}
    for k, call in enumerate(iterations[0].calls):
        runs = [it.calls[k].seconds for it in iterations if it.calls[k].status == "ok"]
        name = getattr(call, key)
        total = out.get(name, 0.0)
        out[name] = None if total is None or not runs else total + min(runs)
    return out


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """Run the workload's passes and report each call's fastest successful run.

    The run makes as many passes as fit in ``--seconds`` at the workload's
    nominal pass length, and pass i always runs the same calls (for
    toy-train, at the i-th seed derived from the benchmark seed), so which
    samples a figure is taken from never depends on how fast the machine
    is.  Only if no pass fully succeeded does the run go on, pass after
    pass, until one does.

    A step's time is the sum of its calls' fastest runs.  On a shared
    2-vCPU virtual machine (Intel Xeon) the speed switched between a fast
    state and one up to 40% slower every few seconds, for the process's CPU
    time as much as for its wall time, and the memory-heavy D=1024 calls of
    cluster varied up to twofold within a run.  The slow runs are the other
    tenants; the fastest is the one least disturbed by them, and the
    minimum moved far less from run to run than the median or the mean.
    ``setup_s`` is the median of its probes.
    """
    probes = SetupProbes(workload.name, seed, work, seconds / SETUP_REPEATS)
    inputs = probes.run_one()
    plan = json.loads((inputs / "plan.json").read_text())
    planned = max(1, int(seconds // workload.pass_s))
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        index = len(iterations)
        iterations.append(run_iteration(workload, plan, inputs, index, work / f"iter{index}",
                                        after_call=probes.maybe))
        if time.perf_counter() - start >= ITERATE_LIMIT_S:
            break
        if len(iterations) < planned:
            continue
        # Past the plan, go on only while no pass has fully succeeded and
        # every failure so far is the program reporting an error at its seed.
        calls = [c for it in iterations for c in it.calls]
        if any(it.ok for it in iterations) or any(c.status in ("no-op", "wrong") for c in calls):
            break
    probes.finish()
    complete = [it for it in iterations if it.ok]
    metrics = {"setup_s": statistics.median(probes.times), **fastest(iterations, "step")}
    steps = [v for m, v in metrics.items() if m.startswith("step")]
    # one pass through all steps, each call at its fastest
    metrics["wall_s"] = None if None in steps else sum(steps)
    # At the end of the first fully successful pass: a pass cut short by a
    # failure peaks lower, and later passes only add allocator hysteresis
    # (glibc raises its mmap threshold as large arrays are freed).
    metrics["peak_rss_mb"] = complete[0].peak_rss_mb if complete else None
    metrics = {m: metrics[m] for m in END_TO_END_UNITS}
    return {"setup_times_s": probes.times, "planned_passes": planned, "iterations": iterations,
            "metrics": metrics}


def measure_traced(workload, seed: int, work: Path) -> dict:
    """Trace one pass, with the same pass untraced just before and after it,
    so a first-pass warm-up does not read as negative overhead.

    The figures come only from a triple in which every call succeeded.  A
    triple with a failed call is counted and the next pass index is tried
    (for toy-train, the next derived seed), at most TRACE_ATTEMPTS times;
    if none succeeds, every per-layer metric is missing and the run is not
    correct.
    """
    import tracing

    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    plan = workload.make_plan(seed, inputs)
    iterations: list[Iteration] = []
    start = time.perf_counter()
    for index in range(TRACE_ATTEMPTS):
        before = run_iteration(workload, plan, inputs, index, work / f"untraced{index}a")
        iterations.append(before)
        if before.ok:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = run_iteration(workload, plan, inputs, index, work / f"traced{index}", tracer)
            after = run_iteration(workload, plan, inputs, index, work / f"untraced{index}b")
            iterations += [traced, after]
            if traced.ok and after.ok:
                extra = workload.probe_metrics(plan, index) if hasattr(workload, "probe_metrics") else {}
                extra["trace_overhead_s"] = traced.wall_s - (before.wall_s + after.wall_s) / 2
                spans_path = OUT / f"spans-{workload.name}-seed{seed}.json"
                tracer.write(spans_path)
                return {"iterations": iterations, "metrics": tracing.layer_values(tracer, extra),
                        "spans_file": spans_path.name}
        calls = [c for it in iterations for c in it.calls]
        if any(c.status in ("no-op", "wrong") for c in calls) or time.perf_counter() - start >= ITERATE_LIMIT_S:
            break
    return {"iterations": iterations, "metrics": dict.fromkeys(tracing.LAYER_METRICS)}


# --- reporting --------------------------------------------------------------------


def report(name: str, seed: int, trace: int, env: dict, res: dict) -> dict:
    import tracing

    calls = [c for it in res["iterations"] for c in it.calls]
    failed = [c for c in calls if c.status != "ok"]
    missing = [m for m, v in res["metrics"].items() if v is None]
    units = END_TO_END_UNITS if trace == 0 else {m: tracing.unit(m) for m in res["metrics"]}
    print(f"perfbench {name} seed={seed} trace={trace} iterations={len(res['iterations'])} "
          f"(fully successful: {sum(it.ok for it in res['iterations'])})")
    print("env " + json.dumps(env, sort_keys=True))
    for metric, value in res["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<10} {metric:<48} {shown:>12} {units[metric]}")
    parts = fastest(res["iterations"], "part") if trace == 0 else {}
    steps = {c.part: c.step for c in res["iterations"][0].calls}
    for part, value in parts.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        label = f"  {part} (in {steps[part]})"
        print(f"  {name:<10} {label:<48} {shown:>12} s  (fastest run of each call)")
    print(f"  {name:<10} {'op_fail_share':<48} {len(failed) / len(calls):>12.6g} "
          f"({len(failed)} of {len(calls)} calls)")
    for c in failed:
        print(f"  failed [{c.status}] {' '.join(c.argv[:3])} ...: {c.message[:300]}")
    if missing:
        print(f"  no successful sample for: {', '.join(missing)}")

    correct = not missing and not any(c.status in ("no-op", "wrong") for c in failed)
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in res["metrics"].items() if v is not None},
    }
    record = {
        "workload": name, "seed": seed, "trace": trace, "env": env, "result": result,
        "op_fail_share": len(failed) / len(calls),
        "parts_s": parts,
        "setup_times_s": res.get("setup_times_s"), "planned_passes": res.get("planned_passes"),
        "spans_file": res.get("spans_file"),
        "iterations": [{"index": it.index, "wall_s": it.wall_s, "peak_rss_mb": it.peak_rss_mb,
                        "calls": [vars(c) for c in it.calls]}
                       for it in res["iterations"]],
    }
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS and set-up are its own),
    then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    try:
        import_moelab()
        if args.workload == "all":
            return run_all(args)
        sys.path.insert(0, str(HERE))
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]()
        if args.setup_into is not None:
            plan = workload.make_plan(args.seed, args.setup_into)
            (args.setup_into / "plan.json").write_text(json.dumps(plan) + "\n")
            return 0
        OUT.mkdir(exist_ok=True)
        work = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        try:
            if args.trace:
                res = measure_traced(workload, args.seed, work)
            else:
                res = measure(workload, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        result = report(args.workload, args.seed, args.trace, environment(nproc), res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
