"""Self-contained verification suites pairing every closed form with an
independent numeric oracle (Monte Carlo, quadrature, or finite
differences).  The CLI's ``verify`` subcommand runs these and turns the
results into a pass/fail table.

The Monte Carlo suites run their cases at once through
:func:`moelab._fork.fork_map`, across up to min(usable CPUs, cases)
processes, this one included, each on one OpenBLAS thread; each case
keeps its own seeded stream, so the results are those of running the
cases in order.  The first case, in
order, that fails raises its own exception; a worker that dies raises
``BrokenProcessPool`` (a RuntimeError).  No worker outlives the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import capacity as cap
from . import losses
from ._fork import fork_map, usable_cpus
from .router import softmax, softmax_backward

_BALANCE_SAMPLES = 100_000  # sphere tokens per uniform-balance case
_MC_SAMPLES = 1_000_000  # Monte Carlo draws per cap-probability case
_BOUNDS_EXPERTS = 16  # expert count of the capacity-bounds grid
_GRAD_POINTS = 100  # random points of the gradient check
_GRAD_REL_TOL = 1e-4  # bound on the gradient check's worst relative error


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst(values) -> float:
    """The largest of ``values`` (numbers, or equal-length arrays of them),
    NaN if any is NaN, so a gate ``worst <= tol`` fails on it; max() would
    drop a NaN, as every comparison with NaN is false."""
    return float(np.max(values))


def _capacity_call(case):
    """``capacity.<name>(*args)`` for a ``(name, *args)`` case.  The
    function is looked up when the case runs, so a replaced one (a test's
    stub, a tracer's wrapper) runs, in a forked worker too, and only its
    name is pickled."""
    name, *args = case
    return getattr(cap, name)(*args)


def check_uniform_balance(seed: int = 2) -> CheckResult:
    """Orthogonal equal-norm gating must route uniform sphere tokens
    evenly: every assignment fraction within 3 binomial sigma of 1/n."""
    grid = ((64, 8), (128, 16))
    cases = [("mc_assignment_fractions", dim, n, _BALANCE_SAMPLES, seed) for dim, n in grid]
    runs = fork_map(_capacity_call, cases, usable_cpus())
    zs = [float(np.abs(f - 1.0 / n).max() / sigma) for (_, n), (f, sigma) in zip(grid, runs)]
    detail = [f"(d={dim},n={n}) max|f-1/n|={z:.2f} sigma" for (dim, n), z in zip(grid, zs)]
    return CheckResult("uniform-balance", _worst(zs) <= 3.0, "; ".join(detail))


_MC_GRID = (
    (0.03125, 1024),  # 1/sqrt(d)
    (0.015625, 4096),
    (0.25, 16),
    (0.5, 8),
    (0.1, 64),
    (0.2, 32),
    (0.3, 12),
    (0.15, 48),
    (0.05, 128),
    (0.35, 10),
)


def check_cap_probability_mc(seed: int = 2) -> CheckResult:
    """Monte Carlo two-cap probability vs. the incomplete-beta formula,
    within 3 binomial standard errors on every grid case."""
    cases = [("mc_p_delta", delta, dim, _MC_SAMPLES, seed + i) for i, (delta, dim) in enumerate(_MC_GRID)]
    runs = fork_map(_capacity_call, cases, usable_cpus())
    zs = [abs(est - cap.p_delta(delta, dim)) / max(stderr, 1e-12)
          for (delta, dim), (est, stderr) in zip(_MC_GRID, runs)]
    i = int(np.argmax(zs))  # the first worst case, or the first NaN one
    return CheckResult(
        "cap-probability-mc",
        zs[i] <= 3.0,
        f"10 cases, worst |mc-analytic| = {zs[i]:.2f} sigma at {_MC_GRID[i]}",
    )


def check_cap_identity() -> CheckResult:
    """Spherical-cap quadrature vs. the beta identity, abs err <= 1e-6
    for d in 3..20 and delta in 0.1..0.9."""
    worst = _worst([cap.cap_area_identity_check(np.arange(0.1, 0.95, 0.1), dim)[2]
                    for dim in range(3, 21)])
    return CheckResult("cap-identity", worst <= 1e-6, f"max abs err {worst:.2e}")


def check_capacity_bounds() -> CheckResult:
    """The erfc form of the capacity bound must exceed the exponential
    form at every grid point with d >= 256 and delta * sqrt(d) >= 1;
    ``ec_min`` raises RuntimeError at a point where it does not.  A NaN
    bound fails too; an infinite one is legal (p_delta = 0 gives one).

    The exact-vs-erfc gap is reported for inspection: at finite d the
    erfc approximation sits slightly above the exact 1/(n p_delta) in the
    moderate regime, so only the erfc > exp leg is gated here.
    """
    worst_gap = 0.0
    n_points = 0
    for dim in (256, 512, 1024, 2048, 4096):
        deltas = np.array((1.0, 1.5, 2.0, 3.0, 5.0)) / math.sqrt(dim)
        try:
            res = cap.ec_min(deltas, dim, _BOUNDS_EXPERTS)  # names the first failing (delta, dim)
        except RuntimeError as exc:
            return CheckResult("capacity-bounds", False, str(exc))
        nan = np.isnan(res.ec_min) | np.isnan(res.erfc_bound) | np.isnan(res.exp_bound)  # inf is legal
        if nan.any():
            return CheckResult("capacity-bounds", False, f"NaN bound at {(float(deltas[nan.argmax()]), dim)}")
        n_points += deltas.size
        finite = np.isfinite(res.ec_min) & np.isfinite(res.erfc_bound)
        exact, erfc_form = res.ec_min[finite], res.erfc_bound[finite]
        worst_gap = max([worst_gap, *((erfc_form - exact) / exact).tolist()])
    return CheckResult(
        "capacity-bounds",
        True,
        f"erfc-form > exp-form at {n_points} points; "
        f"max rel gap of erfc form above exact: {worst_gap:.2e}",
    )


def check_grad(seed: int = 2) -> CheckResult:
    """Analytic gradients of all three losses vs. central differences."""
    rng = np.random.default_rng(seed)
    errs = []
    for _ in range(_GRAD_POINTS):
        kind = rng.integers(3)
        if kind == 0:
            n = int(rng.integers(2, 9))
            f = rng.dirichlet(np.ones(n))
            alpha = float(rng.uniform(0.001, 0.1))
            # the 1e-3 keeps every entry of p - step positive
            err = losses.grad_check(
                lambda p: losses.aux_loss(f, p / p.sum(), alpha),
                lambda p: losses.aux_loss_grad_p(f, alpha) / p.sum()
                - np.dot(losses.aux_loss_grad_p(f, alpha), p) / p.sum() ** 2,
                rng.dirichlet(np.ones(n)) + 1e-3,
            )
        elif kind == 1:
            n = int(rng.integers(2, 9))
            d_l = rng.dirichlet(np.ones(n)) + 1e-3
            d_l /= d_l.sum()
            mu = float(rng.uniform(0.001, 0.1))
            # z is one row of scores, chained through training's softmax backward
            err = losses.grad_check(
                lambda z: losses.locality_loss(softmax(z)[0], d_l, mu),
                lambda z: softmax_backward(
                    softmax(z), losses.locality_loss_grad(softmax(z)[0], d_l, mu)[None, :]
                ),
                rng.normal(0, 1, (1, n)),
            )
        else:
            t, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            targets = rng.integers(0, k, t)
            err = losses.grad_check(
                lambda lg: losses.cross_entropy(lg.reshape(t, k), targets),
                lambda lg: losses.cross_entropy_grad(lg.reshape(t, k), targets).ravel(),
                rng.normal(0, 2, t * k),
            )
        errs.append(err)
    worst = _worst(errs)
    return CheckResult(
        "grad-check", worst <= _GRAD_REL_TOL, f"{_GRAD_POINTS} points, max rel err {worst:.2e}"
    )


CHECKS = {
    "uniform-balance": lambda seed: check_uniform_balance(seed=seed),
    "cap-probability-mc": lambda seed: check_cap_probability_mc(seed=seed),
    "cap-identity": lambda seed: check_cap_identity(),
    "capacity-bounds": lambda seed: check_capacity_bounds(),
    "grad-check": lambda seed: check_grad(seed=seed),
}


def run_checks(only: str | None = None, seed: int = 2) -> list[CheckResult]:
    """Run all verification suites, or the one named (a key of ``CHECKS``)."""
    return [CHECKS[name](seed) for name in ([only] if only else CHECKS)]
