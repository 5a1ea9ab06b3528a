"""The benchmark's workloads: inputs made from a seed, the CLI calls of one
iteration, and the checks that compare each call's artifacts against
references recomputed in :mod:`oracles`.

Every workload has two steps, reported as ``step1_s`` and ``step2_s`` so
that each end-to-end metric exists on every workload, and a nominal pass
length ``pass_s`` (seconds, checks included, on a 2-vCPU Intel Xeon
virtual machine) that sets how many passes a run of ``--seconds`` makes.  A step is at least a
few hundred milliseconds of work, because on a shared machine a shorter one
cannot be timed steadily.  Each call also names its part (``train_toy_s``,
``capacity_grid_s`` and so on), which the printed table breaks out.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

# Shipped defaults the toy-train workload runs at; the checks need them to
# build references, and a change to a default is a change of workload.
TOY_TOKENS = 4 * 1024
TOY_DIM = 32
TOY_HIDDEN = 4 * TOY_DIM
TOY_EXPERTS = 16
TOY_EPOCHS = 50
TOKEN_BYTES = 4096
DEFAULT_TOPOLOGY = {
    "n_nodes": 2, "devices_per_node": 8, "intra_bw": 100e9, "inter_bw": 25e9,
    "intra_latency": 10e-6, "inter_latency": 30e-6,
}
DEFAULT_TP_GROUP = 8
OVERLAP_RATIO = 0.5
DEVICE_FLOPS = 1e12

REL_TOL = 1e-9
# From delta * sqrt(d) = 3 (p_delta about 3e-3) on, p_delta is checked
# relative to the remainder series; the library agrees with it to ~1e-12.
TAIL_DELTA_SQRT_D = 3.0
TAIL_REL_TOL = 1e-10


class CheckFailed(Exception):
    """A call that did not do its job.

    ``kind`` is ``error`` when the program reported a failure (non-zero exit
    or an exception escaping ``main``), ``no-op`` when it exited 0 without
    writing its artifacts, and ``wrong`` when an artifact disagrees with the
    reference.  Only ``no-op`` and ``wrong`` make a run incorrect.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass
class Call:
    part: str
    argv: list[str]
    check: Callable[[int, str], None]  # (exit code, captured stdout) -> raises CheckFailed


@dataclass
class Step:
    metric: str
    calls: list[Call] = field(default_factory=list)


# --- artifact helpers ---------------------------------------------------------


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed("wrong", message)


def _close(got: float, want: float, what: str, rel: float = REL_TOL, abs_: float = 0.0):
    got, want = float(got), float(want)
    if math.isinf(want) or math.isinf(got):
        _require(got == want, f"{what}: {got!r} != {want!r}")
        return
    _require(
        abs(got - want) <= max(rel * max(abs(got), abs(want)), abs_),
        f"{what}: {got!r} != {want!r}",
    )


def _expect_exit(rc: int, want: int = 0):
    if rc != want:
        raise CheckFailed("error", f"exit code {rc}, expected {want}")


def _read_csv(path: Path, seed: int) -> list[list[str]]:
    """Rows of an artifact whose sidecar must name the seed; missing files
    after a zero exit are a silent no-op."""
    meta = path.with_name(path.name + ".meta.json")
    if not path.exists() or not meta.exists():
        raise CheckFailed("no-op", f"{path.name} or its sidecar was not written")
    info = json.loads(meta.read_text())
    _require(info.get("tool") == "moelab" and info.get("seed") == seed,
             f"{meta.name} records {info.get('tool')!r} seed {info.get('seed')!r}, expected seed {seed}")
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _entropy(f: np.ndarray) -> float:
    pos = f[f > 0]
    return float(-np.sum(pos * np.log(pos)))


def _check_costs(row: dict, want: dict, g: int):
    _require(int(row["tp_group"]) == g, f"tp_group {row['tp_group']} != {g}")
    for key, column in (("plain", "plain_alltoall_s"), ("grouped", "groupwise_total_s"),
                        ("dispatch_bytes", "dispatch_bytes"), ("allgather_bytes", "allgather_bytes"),
                        ("input_bytes", "input_bytes")):
        _close(float(row[column]), want[key], column)


def _single_row(rows: list[list[str]]) -> dict:
    _require(len(rows) == 2, f"expected header plus one row, got {len(rows)} rows")
    return dict(zip(rows[0], rows[1]))


def _load_volume(path: Path) -> np.ndarray:
    volume = np.loadtxt(path, delimiter=",", skiprows=1)
    return volume.reshape(1, -1) if volume.ndim == 1 else volume


# --- toy-train ---------------------------------------------------------------


class ToyTrain:
    name = "toy-train"
    why = ("Headline experiment at shipped defaults. step1 train-toy loc then comm-sim from the run, "
           "step2 compare-routers; time goes to toymoe, erf, softmax, losses, the probe.")
    pass_s = 12.0

    def make_plan(self, seed: int, inputs: Path) -> dict:
        return {"seed": seed}

    @staticmethod
    def iteration_seed(seed: int, iteration: int) -> int:
        """The benchmark seed for iteration 0, then seeds derived from it.

        The start-of-run gradient probe fails on some seeds (about one in
        seven for each of loc and switch); such a run dies early.  A fresh
        seed per iteration still gives the run successful samples, while the
        failure is counted.
        """
        if iteration == 0:
            return seed
        return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0] % 2**31)

    def steps(self, plan: dict, inputs: Path, iteration: int, out: Path) -> list[Step]:
        seed = self.iteration_seed(plan["seed"], iteration)
        prefix = out / "run"
        state: dict = {}
        return [
            Step("step1_s", [
                Call("train_toy_s",
                     ["train-toy", "--router", "loc", "--seed", str(seed), "--out", f"{prefix}.csv"],
                     lambda rc, _: self._check_train(rc, prefix, seed, state)),
                Call("comm_sim_from_run_s",
                     ["comm-sim", "--volumes", f"from-run:{prefix}", "--seed", str(seed),
                      "--out", str(out / "comm.csv")],
                     lambda rc, _: self._check_from_run(rc, prefix, out / "comm.csv", seed)),
            ]),
            Step("step2_s", [Call(
                "compare_routers_s",
                ["comm-sim", "--compare-routers", "--seed", str(seed), "--out", str(out / "compare.csv")],
                lambda rc, _: self._check_compare(rc, out / "compare.csv", seed, state))]),
        ]

    def _check_train(self, rc: int, prefix: Path, seed: int, state: dict):
        _expect_exit(rc)
        rows = _read_csv(Path(f"{prefix}.csv"), seed)
        n = TOY_EXPERTS
        header = (["epoch", "step", "router"] + [f"count_{i}" for i in range(n)]
                  + [f"f_{i}" for i in range(n)] + [f"P_{i}" for i in range(n)]
                  + ["l_aux", "l_loc", "l_cross", "l_cross_mean", "l_task",
                     "locality_fraction", "entropy"])
        _require(rows[0] == header, "run.csv header differs")
        _require(len(rows) == TOY_EPOCHS + 1, f"run.csv has {len(rows) - 1} epochs")
        counts = []
        for epoch, row in enumerate(rows[1:]):
            _require(row[:3] == [str(epoch), "0", "loc"], f"epoch row {epoch} starts {row[:3]}")
            c = np.array([int(v) for v in row[3:3 + n]])
            f = np.array([float(v) for v in row[3 + n:3 + 2 * n]])
            p = np.array([float(v) for v in row[3 + 2 * n:3 + 3 * n]])
            l_aux, l_loc, l_cross, l_mean, l_task, loc, ent = (float(v) for v in row[3 + 3 * n:])
            _require(c.sum() == TOY_TOKENS, f"epoch {epoch}: counts sum to {c.sum()}")
            _require(np.array_equal(f, c / TOY_TOKENS), f"epoch {epoch}: f is not counts / T")
            _require((p >= 0).all() and abs(p.sum() - 1.0) < 1e-9, f"epoch {epoch}: P is not a distribution")
            _require(all(math.isfinite(v) for v in (l_aux, l_loc, l_cross, l_task)),
                     f"epoch {epoch}: non-finite loss")
            _close(l_cross, l_mean * TOY_TOKENS, f"epoch {epoch} l_cross")
            _close(l_task, l_aux + l_loc + l_cross, f"epoch {epoch} l_task")
            _close(ent, _entropy(f), f"epoch {epoch} entropy", abs_=1e-12)
            _require(0.0 <= loc <= 1.0, f"epoch {epoch}: locality {loc}")
            counts.append(c)

        report = _read_csv(Path(f"{prefix}.report.csv"), seed)
        _require(len(report) == TOY_EPOCHS + 1, "report.csv row count")
        seen = np.zeros(n, dtype=bool)
        for epoch, (row, rep) in enumerate(zip(rows[1:], report[1:])):
            seen |= counts[epoch] > 0
            _require(rep[:3 + n] == row[:3 + n], f"report epoch {epoch} counts differ from run.csv")
            _require(rep[3 + n] == row[-1] and rep[-1] == row[-2],
                     f"report epoch {epoch} entropy/locality differ from run.csv")
            _close(float(rep[4 + n]), float((~seen).mean()), f"report epoch {epoch} never_used")

        vrows = _read_csv(Path(f"{prefix}.volumes.csv"), seed)
        devices = DEFAULT_TOPOLOGY["n_nodes"] * DEFAULT_TOPOLOGY["devices_per_node"]
        _require(vrows[0] == [f"to_dev_{j}" for j in range(devices)], "volumes.csv header")
        volume = np.array([[float(v) for v in r] for r in vrows[1:]])
        _require(volume.shape == (devices, devices), f"volumes.csv is {volume.shape}")
        _require((volume % TOKEN_BYTES == 0).all(), "volumes are not whole tokens")
        per_device = TOY_TOKENS // devices * TOKEN_BYTES
        _require((volume.sum(axis=1) == per_device).all(), "a source device does not send its shard")
        # round-robin placement: expert e lives on device e
        _require(np.array_equal(volume.sum(axis=0), counts[-1] * TOKEN_BYTES),
                 "volumes disagree with the final expert counts")
        node = np.arange(devices) // DEFAULT_TOPOLOGY["devices_per_node"]
        local = volume[node[:, None] == node[None, :]].sum() / volume.sum()
        _close(float(local), float(rows[-1][-2]), "volume locality vs final locality_fraction")
        state["final_locality"] = rows[-1][-2]
        state["final_entropy"] = rows[-1][-1]

    def _check_from_run(self, rc: int, prefix: Path, out: Path, seed: int):
        _expect_exit(rc)
        row = _single_row(_read_csv(out, seed))
        volume = _load_volume(Path(f"{prefix}.volumes.csv"))
        _check_costs(row, oracles.comm_costs(volume, DEFAULT_TOPOLOGY, DEFAULT_TP_GROUP), DEFAULT_TP_GROUP)

    def _check_compare(self, rc: int, out: Path, seed: int, state: dict):
        _expect_exit(rc)
        rows = _read_csv(out, seed)
        header = ["router", "entropy", "locality_fraction", "plain_alltoall_s",
                  "groupwise_alltoall_s", "modeled_compute_s", "visible_comm_s", "comm_share"]
        _require(rows[0] == header, "compare.csv header differs")
        _require([r[0] for r in rows[1:]] == ["hash", "switch", "loc"], "compare.csv routers")
        compute = TOY_TOKENS * (4 * TOY_DIM * TOY_HIDDEN + TOY_HIDDEN + TOY_DIM) / (
            DEVICE_FLOPS * DEFAULT_TOPOLOGY["n_nodes"] * DEFAULT_TOPOLOGY["devices_per_node"])
        for r in rows[1:]:
            kind = r[0]
            ent, loc, plain, _, comp, visible, share = (float(v) for v in r[1:])
            _require(0.0 <= ent <= math.log(TOY_EXPERTS) + 1e-12, f"{kind}: entropy {ent}")
            _require(0.0 <= loc <= 1.0, f"{kind}: locality {loc}")
            _close(comp, compute, f"{kind} modeled_compute_s")
            want_visible = max(0.0, plain - OVERLAP_RATIO * comp)
            _close(visible, want_visible, f"{kind} visible_comm_s")
            _close(share, want_visible / (comp + want_visible), f"{kind} comm_share")
        hash_row = [float(v) for v in rows[1][1:5]]
        for got, want, what in zip(hash_row, _hash_reference(), ("entropy", "locality", "plain", "groupwise")):
            _close(got, want, f"hash {what}")
        if state:  # the loc run here repeats train-toy's run exactly
            _require(rows[3][1] == state["final_entropy"] and rows[3][2] == state["final_locality"],
                     "compare-routers loc row differs from the train-toy run at the same seed")

    def probe_metrics(self, plan: dict, iteration: int = 0, repeats: int = 3) -> dict:
        """Start-of-run gradient probe cost per router, on the corpus of the
        given pass: train(epochs=1) with the check minus the same call
        without it, medians of ``repeats``.  The tolerance is lifted so a
        seed whose probe fails is still timed."""
        import dataclasses
        import time

        from moelab import defaults, toymoe
        from moelab.losses import LossConfig

        seed = self.iteration_seed(plan["seed"], iteration)
        corpus = toymoe.make_synthetic_corpus(dataclasses.replace(defaults.DEFAULT_CORPUS, seed=seed))
        topology = defaults.DEFAULT_TOPOLOGY
        placement = defaults.default_placement(TOY_EXPERTS, topology)
        out = {}
        for kind in ("hash", "switch", "loc"):
            loss = defaults.DEFAULT_TRAIN_LOSSES if kind == "loc" else LossConfig(alpha=0.0, mu=0.0)

            def once(check: bool) -> float:
                start = time.perf_counter()
                toymoe.train(corpus, kind, TOY_EXPERTS, placement, topology, epochs=1,
                             lr=defaults.DEFAULT_LR, loss_cfg=loss, seed=seed,
                             check_gradients=check, grad_check_tol=math.inf)
                return time.perf_counter() - start

            with_probe = float(np.median([once(True) for _ in range(repeats)]))
            without = float(np.median([once(False) for _ in range(repeats)]))
            out[f"toymoe.probe.{kind}_s"] = with_probe - without
        return out


@functools.cache
def _hash_reference() -> tuple[float, ...]:
    """entropy, locality, plain and group-wise cost of the hash router on the
    default corpus; hash routing ignores the seed, so this is computed once."""
    devices = DEFAULT_TOPOLOGY["n_nodes"] * DEFAULT_TOPOLOGY["devices_per_node"]
    per_node = DEFAULT_TOPOLOGY["devices_per_node"]
    # round-robin placement: expert e lives on device e mod D
    expert = np.array([oracles.fnv1a64(t) % TOY_EXPERTS for t in range(TOY_TOKENS)])
    dest = expert % devices
    source = np.arange(TOY_TOKENS) * devices // TOY_TOKENS
    volume = np.zeros((devices, devices))
    np.add.at(volume, (source, dest), float(TOKEN_BYTES))
    costs = oracles.comm_costs(volume, DEFAULT_TOPOLOGY, DEFAULT_TP_GROUP)
    return (
        _entropy(np.bincount(expert, minlength=TOY_EXPERTS) / TOY_TOKENS),
        float(np.mean(source // per_node == dest // per_node)),
        costs["plain"], costs["grouped"],
    )


# --- theory --------------------------------------------------------------------


class Theory:
    name = "theory"
    why = ("No training. step1 verify (five oracle suites); step2 capacity --grid at d=256..4096 and "
           "route-sim block 100k tokens. Scalar erfc, incomplete beta, Monte Carlo, routing.")
    pass_s = 3.5

    GRID_DIMS = (256, 512, 1024, 2048, 4096)
    GRID_POINTS = 2000
    GRID_EXPERTS = 16
    ROUTE = {"tokens": 100_000, "dim": 64, "experts": 8, "capacity_factor": 1.0}
    HIST_BINS = 64
    HIST_PER_EXPERT = 256
    VERIFY_SUITES = ("uniform-balance", "cap-probability-mc", "cap-identity",
                     "capacity-bounds", "grad-check")

    def __init__(self):
        self._expected: dict = {}
        self._grid_p: dict = {}

    def make_plan(self, seed: int, inputs: Path) -> dict:
        # delta * sqrt(d) from 0.02 to 5 covers the moderate regime and the tail
        grids = {str(d): f"{0.02 / math.sqrt(d)!r}:{5.0 / math.sqrt(d)!r}:{self.GRID_POINTS}"
                 for d in self.GRID_DIMS}
        return {"seed": seed, "grids": grids}

    def steps(self, plan: dict, inputs: Path, iteration: int, out: Path) -> list[Step]:
        seed = plan["seed"]
        s = str(seed)
        grid_calls = [
            Call("capacity_grid_s",
                 ["capacity", "--grid", spec, "--dim", dim, "--experts", str(self.GRID_EXPERTS),
                  "--seed", s, "--out", str(out / f"grid{dim}.csv")],
                 lambda rc, _, dim=dim, spec=spec: self._check_grid(rc, out / f"grid{dim}.csv", int(dim), spec, seed))
            for dim, spec in plan["grids"].items()
        ]
        r = self.ROUTE
        route_argv = ["route-sim", "--router", "block", "--tokens", str(r["tokens"]), "--dim", str(r["dim"]),
                      "--experts", str(r["experts"]), "--capacity-factor", repr(r["capacity_factor"]),
                      "--histograms", "--seed", s, "--out", str(out / "route.csv")]
        return [
            Step("step1_s", [Call("verify_s", ["verify", "--seed", s],
                                  lambda rc, stdout: self._check_verify(rc, stdout, seed))]),
            Step("step2_s", grid_calls + [Call("route_sim_s", route_argv,
                                               lambda rc, _: self._check_route(rc, out, seed))]),
        ]

    def _expect(self, seed: int) -> dict:
        if seed not in self._expected:
            z_uniform = oracles.uniform_balance_z(seed)
            z_mc = oracles.cap_probability_mc_z(seed)
            r = self.ROUTE
            assign, p_mean = oracles.block_routing(seed, r["tokens"], r["dim"], r["experts"], relu=True)
            self._expected[seed] = {"z_uniform": z_uniform, "z_mc": z_mc, "assign": assign, "P": p_mean}
        return self._expected[seed]

    def _check_verify(self, rc: int, stdout: str, seed: int):
        exp = self._expect(seed)
        # A 3-sigma Monte Carlo test fails on some seeds; FAIL is then the right verdict.
        want_pass = {
            "uniform-balance": max(exp["z_uniform"]) <= 3.0,
            "cap-probability-mc": exp["z_mc"] <= 3.0,
        }
        lines = [ln.split(None, 2) for ln in stdout.splitlines() if ln.strip()]
        if rc == 0 and not lines:
            raise CheckFailed("no-op", "verify printed nothing")
        _require([ln[0] for ln in lines] == list(self.VERIFY_SUITES), f"verify suites {[ln[0] for ln in lines]}")
        for name, status, detail in lines:
            want = "PASS" if want_pass.get(name, True) else "FAIL"
            _require(status == want, f"verify {name}: {status}, expected {want} ({detail})")
        zu = exp["z_uniform"]
        _require(f"max|f-1/n|={zu[0]:.2f} sigma" in lines[0][2] and f"max|f-1/n|={zu[1]:.2f} sigma" in lines[0][2],
                 f"uniform-balance detail {lines[0][2]!r}, reference z {zu}")
        _require(f"= {exp['z_mc']:.2f} sigma" in lines[1][2],
                 f"cap-probability-mc detail {lines[1][2]!r}, reference z {exp['z_mc']:.2f}")
        want_rc = 0 if all(ln[1] == "PASS" for ln in lines) else 1
        if rc != want_rc:
            raise CheckFailed("wrong" if rc in (0, 1) else "error", f"verify exit {rc}, expected {want_rc}")

    def _check_grid(self, rc: int, path: Path, dim: int, spec: str, seed: int):
        _expect_exit(rc)
        rows = _read_csv(path, seed)
        _require(rows[0] == ["delta", "p_delta", "ec_min", "erfc_bound", "exp_bound", "degenerate", "unbounded"],
                 f"{path.name} header")
        start, stop, count = spec.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
        _require(len(rows) - 1 == grid.size, f"{path.name}: {len(rows) - 1} rows, expected {grid.size}")
        data = np.array([[float(v) for v in r[:5]] for r in rows[1:]])
        delta, p = data[:, 0], data[:, 1]
        _require(np.array_equal(delta, grid), f"{path.name}: delta column is not the grid")
        tail = grid * math.sqrt(dim) >= TAIL_DELTA_SQRT_D
        if spec not in self._grid_p:
            self._grid_p[spec] = (oracles.two_cap_probability(grid[~tail], dim),
                                  oracles.two_cap_tail(grid[tail], dim))
        want_body, want_tail = self._grid_p[spec]
        # The series' rounding error grows with its ~d/2 terms and is absolute;
        # in the tail the remainder series holds full relative accuracy.
        worst = float(np.abs(p[~tail] - want_body).max(initial=0.0))
        _require(worst <= 1e-14 * dim, f"{path.name}: p_delta off the series oracle by {worst:.2e}")
        worst = float((np.abs(p[tail] - want_tail) / want_tail).max(initial=0.0))
        _require(worst <= TAIL_REL_TOL,
                 f"{path.name}: tail p_delta off the remainder series by {worst:.2e} relative")
        _require((np.diff(p) <= 0).all(), f"{path.name}: p_delta is not non-increasing")
        n = self.GRID_EXPERTS
        for (d_, p_, ec, erfc_b, exp_b), r in zip(data, rows[1:]):
            y2 = d_ * d_ * dim / (2.0 - d_ * d_)
            _close(ec, math.inf if p_ == 0 else 1.0 / (n * p_), f"ec_min at delta={float(d_)!r}")
            e = math.erfc(math.sqrt(y2))
            _close(erfc_b, math.inf if e == 0 else 1.0 / (n * e), f"erfc_bound at delta={float(d_)!r}", rel=1e-12)
            _close(exp_b, math.exp(y2) / n, f"exp_bound at delta={float(d_)!r}", rel=1e-12)
            _require(r[5:] == [str(n * p_ > 1.0), str(p_ == 0.0)], f"flags at delta={float(d_)!r}: {r[5:]}")

    def _check_route(self, rc: int, out: Path, seed: int):
        _expect_exit(rc)
        exp = self._expect(seed)
        r = self.ROUTE
        rows = _read_csv(out / "route.csv", seed)
        _require(rows[0] == ["expert", "assigned", "served", "dropped", "f", "P"], "route.csv header")
        assigned = np.bincount(exp["assign"], minlength=r["experts"])
        cap = math.ceil(r["tokens"] * r["capacity_factor"] / r["experts"])
        _require(len(rows) == r["experts"] + 1, "route.csv row count")
        for i, row in enumerate(rows[1:]):
            a = int(assigned[i])
            _require(row[:4] == [str(i), str(a), str(min(a, cap)), str(a - min(a, cap))],
                     f"route.csv expert {i}: {row[:4]}, expected assigned {a}, capacity {cap}")
            _close(float(row[4]), a / r["tokens"], f"f_{i}")
            _close(float(row[5]), float(exp["P"][i]), f"P_{i}")

        hist = _read_csv(out / "route.histograms.csv", seed)
        n, bins = r["experts"], self.HIST_BINS
        _require(len(hist) == 1 + n * n * bins + 2 * n * bins, "histogram row count")
        edges = np.linspace(-1.0, 1.0, bins + 1)
        sums: dict = {}
        for kind, i, j, lo, hi, count in hist[1:]:
            k = int(np.searchsorted(edges, float(lo)))
            _require(float(lo) == edges[k] and float(hi) == edges[k + 1], f"histogram bin {lo}..{hi}")
            key = (kind, int(i), int(j))
            sums[key] = sums.get(key, 0) + int(count)
        m = np.minimum(assigned, self.HIST_PER_EXPERT)
        for i in range(n):
            for j in range(n):
                want = m[i] * (m[i] - 1) // 2 if i == j else m[i] * m[j]
                _require(sums[("token_pair", i, j)] == want, f"token_pair {i},{j} holds {sums[('token_pair', i, j)]}")
            _require(sums[("weight_routed", i, i)] == assigned[i], f"weight_routed {i}")
            _require(sums[("weight_other", i, i)] == r["tokens"] - assigned[i], f"weight_other {i}")


# --- cluster -----------------------------------------------------------------------


class Cluster:
    name = "cluster"
    why = ("Seeded two-tier topologies, 8 devices/node; comm-sim over volume CSVs from uniform to "
           "node-local at tp-group 1 and 8. step1 D=16 and 256, step2 D=1024: commsim, CSV parsing.")
    pass_s = 3.0

    DEVICES = (16, 256, 1024)
    # Share of tokens sent to a device of their own node.  The small clusters
    # get a fine sweep, which also makes step1 long enough to time steadily.
    LOCALITY = {16: tuple(k / 10 for k in range(11)), 256: tuple(k / 10 for k in range(11)),
                1024: (0.0, 0.5, 1.0)}
    TP_GROUPS = (1, 8)
    DEVICES_PER_NODE = 8
    TOKENS_PER_DEVICE = 512

    def __init__(self):
        self._expected: dict = {}  # (volumes file, g) -> reference costs; inputs are fixed per run

    def make_plan(self, seed: int, inputs: Path) -> dict:
        rng = np.random.default_rng(seed)
        cases = []
        for d in self.DEVICES:
            topo = {
                "n_nodes": d // self.DEVICES_PER_NODE,
                "devices_per_node": self.DEVICES_PER_NODE,
                "intra_bw": float(rng.uniform(50e9, 200e9)),
                "inter_bw": float(rng.uniform(5e9, 40e9)),
                "intra_latency": float(rng.uniform(2e-6, 10e-6)),
                "inter_latency": float(rng.uniform(10e-6, 50e-6)),
            }
            topo_path = inputs / f"topology_D{d}.json"
            topo_path.write_text(json.dumps(topo, indent=2) + "\n")
            source = np.repeat(np.arange(d), self.TOKENS_PER_DEVICE)
            first_local = source // self.DEVICES_PER_NODE * self.DEVICES_PER_NODE
            for lam in self.LOCALITY[d]:
                local = rng.random(source.size) < lam
                dest = np.where(local,
                                first_local + rng.integers(0, self.DEVICES_PER_NODE, source.size),
                                rng.integers(0, d, source.size))
                volume = np.bincount(source * d + dest, minlength=d * d).reshape(d, d) * float(TOKEN_BYTES)
                vol_path = inputs / f"volumes_D{d}_local{lam}.csv"
                with vol_path.open("w") as fh:
                    fh.write(",".join(f"to_dev_{j}" for j in range(d)) + "\n")
                    for row in volume.tolist():
                        fh.write(",".join(map(repr, row)) + "\n")
                cases.append({"devices": d, "locality": lam, "topology": topo_path.name, "volumes": vol_path.name})
        return {"seed": seed, "cases": cases}

    def _expect(self, inputs: Path, case: dict, g: int) -> dict:
        key = (str(inputs / case["volumes"]), g)
        if key not in self._expected:
            volume = _load_volume(inputs / case["volumes"])
            topo = json.loads((inputs / case["topology"]).read_text())
            for group in self.TP_GROUPS:
                self._expected[(key[0], group)] = oracles.comm_costs(volume, topo, group)
        return self._expected[key]

    def steps(self, plan: dict, inputs: Path, iteration: int, out: Path) -> list[Step]:
        seed = plan["seed"]

        def check(rc, _, case, g, path):
            _expect_exit(rc)
            _check_costs(_single_row(_read_csv(path, seed)), self._expect(inputs, case, g), g)

        steps = [Step("step1_s"), Step("step2_s")]
        for d in self.DEVICES:
            step = steps[d == max(self.DEVICES)]
            for case in (c for c in plan["cases"] if c["devices"] == d):
                for g in self.TP_GROUPS:
                    path = out / f"comm_D{d}_local{case['locality']}_g{g}.csv"
                    step.calls.append(Call(
                        f"comm_sim_D{d}_s",
                        ["comm-sim", "--volumes", str(inputs / case["volumes"]),
                         "--topology", str(inputs / case["topology"]), "--tp-group", str(g),
                         "--seed", str(seed), "--out", str(path)],
                        lambda rc, so, case=case, g=g, path=path: check(rc, so, case, g, path)))
        return steps


WORKLOADS = {w.name: w for w in (ToyTrain, Theory, Cluster)}
