"""Expert-capacity theory and its independent numeric oracles.

The central quantity is the probability that a uniformly distributed unit
token lies within angle arccos(delta) of a fixed gating direction,
counting both symmetric caps:

    p_delta = 1 - I_{delta^2}(1/2, (d - 1) / 2)

From it follow the capacity lower bound 1 / (n * p_delta), its erfc
approximation 1 / (n * erfc(sqrt(delta^2 d / (2 - delta^2)))), and the
looser exponential form exp(delta^2 d / (2 - delta^2)) / n.  Monte Carlo
estimators and a direct spherical-cap quadrature are provided so every
closed form can be cross-checked without trusting the implementation
being checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .router import RoutingOutcome, TokenBatch, build_block_gating
from .special import erfc, reg_incomplete_beta_complement


@dataclass(frozen=True)
class CapacityTheoryInput:
    """(delta, dim, n_experts) query for the capacity bound."""

    delta: float
    dim: int
    n_experts: int

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.n_experts < 1:
            raise ValueError(f"n_experts must be >= 1, got {self.n_experts}")


@dataclass(frozen=True)
class CapacityTheoryResult:
    """Capacity bound in its exact, erfc, and exponential forms.

    ``degenerate`` flags queries where n * p_delta > 1, i.e. the premise
    that 1/(n p_delta) is a probability's reciprocal is vacuous; the
    values are still reported.  ``unbounded`` flags p_delta == 0, where
    the exact bound is infinite.
    """

    p_delta: float
    ec_min: float
    erfc_bound: float
    exp_bound: float
    degenerate: bool
    unbounded: bool


@dataclass(frozen=True)
class SphereSampleConfig:
    dim: int
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


def p_delta(inp: CapacityTheoryInput) -> float:
    """Two-cap assignment probability 1 - I_{delta^2}(1/2, (d-1)/2).

    Evaluated through the complementary beta expansion so the deep tail
    (delta close to 1) keeps full relative accuracy.
    """
    d2 = inp.delta * inp.delta
    return reg_incomplete_beta_complement(d2, 0.5, (inp.dim - 1) / 2.0)


def ec_min(inp: CapacityTheoryInput) -> CapacityTheoryResult:
    """Capacity lower bound in all three printed forms.

    The exact value is 1 / (n * p_delta).  The code checks the provable
    leg of the chain, erfc form > exponential form, which reduces to
    exp(y^2) * erfc(y) < 1 for y > 0, and raises RuntimeError if it
    fails.  The exact and erfc forms are both reported so their
    (approximation-order) gap can be inspected.
    """
    n = inp.n_experts
    p = p_delta(inp)
    y2 = inp.delta * inp.delta * inp.dim / (2.0 - inp.delta * inp.delta)
    y = math.sqrt(y2)
    ec = math.inf if p == 0.0 else 1.0 / (n * p)
    e = erfc(y)
    erfc_bound = math.inf if e == 0.0 else 1.0 / (n * e)
    try:
        exp_bound = math.exp(y2) / n
    except OverflowError:
        exp_bound = math.inf
    if 0.0 < y and math.isfinite(erfc_bound) and math.isfinite(exp_bound):
        if not erfc_bound > exp_bound:
            raise RuntimeError(
                f"erfc-form bound {erfc_bound} not above exp-form {exp_bound}"
            )
    return CapacityTheoryResult(
        p_delta=p,
        ec_min=ec,
        erfc_bound=erfc_bound,
        exp_bound=exp_bound,
        degenerate=n * p > 1.0,
        unbounded=p == 0.0,
    )


def empirical_capacity(batch_size: int, capacity_factor: float, expert_parallel: int, n_experts: int) -> int:
    """Per-expert token budget ceil(batch_size * capacity_factor / (expert_parallel * n))."""
    if batch_size <= 0 or capacity_factor <= 0 or expert_parallel <= 0 or n_experts <= 0:
        raise ValueError(
            "all of batch_size, capacity_factor, expert_parallel, n_experts "
            f"must be positive, got ({batch_size}, {capacity_factor}, "
            f"{expert_parallel}, {n_experts})"
        )
    return math.ceil(batch_size * capacity_factor / (expert_parallel * n_experts))


def capacity_curve(dim: int, n_experts: int, delta_grid) -> list[tuple[float, CapacityTheoryResult]]:
    """Capacity bounds along a grid of cosine thresholds, as
    ``(delta, ec_min result)`` pairs.

    The grid must be strictly increasing inside (0, 1); the exact bound is
    then non-decreasing along it because p_delta is decreasing in delta.
    """
    grid = np.asarray(delta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("delta grid must be a non-empty 1-d sequence")
    if (grid <= 0).any() or (grid >= 1).any():
        raise ValueError("delta grid values must lie strictly inside (0, 1)")
    if (np.diff(grid) <= 0).any():
        raise ValueError("delta grid must be strictly increasing")
    return [
        (float(delta), ec_min(CapacityTheoryInput(delta=float(delta), dim=dim, n_experts=n_experts)))
        for delta in grid
    ]


def sample_unit_sphere(cfg: SphereSampleConfig) -> TokenBatch:
    """I.i.d. uniform points on the unit sphere via normalized Gaussians."""
    rng = np.random.default_rng(cfg.seed)
    raw = rng.standard_normal((cfg.n_samples, cfg.dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return TokenBatch(
        tokens=raw / norms,
        token_ids=np.arange(cfg.n_samples),
        unit_norm=True,
    )


def mc_p_delta(delta: float, dim: int, n_samples: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the two-cap probability, with binomial stderr.

    Counts samples whose |cosine| to a fixed unit axis is >= delta.  The
    cosine of a uniform sphere point to the first axis equals
    g / sqrt(g^2 + s) for g ~ N(0,1) and s ~ chi-square(d-1) (the rest of
    the squared norm of the generating Gaussian), so only the two scalars
    are sampled; this keeps memory flat in ``dim`` without changing the
    estimator's law.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n_samples)
    rest = rng.chisquare(dim - 1, n_samples)
    cos = g / np.sqrt(g * g + rest)
    est = float(np.mean(np.abs(cos) >= delta))
    stderr = math.sqrt(est * (1.0 - est) / n_samples)
    return est, stderr


def mc_assignment_fractions(dim: int, n_experts: int, n_samples: int, seed: int = 0) -> tuple[np.ndarray, float]:
    """Assignment fractions of uniform sphere tokens under block gating.

    Routes by the minimum angle to the gating rows, i.e. argmax of the raw
    inner products (equivalent to the scored router whenever some score is
    positive; the all-clipped tie case is excluded deliberately so the
    spherical-symmetry prediction f_i = 1/n is what is actually measured).
    Returns (f, sigma) with sigma the binomial std of each f_i estimate.
    """
    weights = build_block_gating(n_experts, dim)
    batch = sample_unit_sphere(SphereSampleConfig(dim=dim, n_samples=n_samples, seed=seed))
    assign = np.argmax(batch.tokens @ weights.T, axis=1)
    f = np.bincount(assign, minlength=n_experts) / n_samples
    sigma = math.sqrt((1.0 / n_experts) * (1.0 - 1.0 / n_experts) / n_samples)
    return f, sigma


def _gauss_legendre(f, a: float, b: float, n_nodes: int = 160) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return float(half * np.sum(weights * f(mid + half * nodes)))


def cap_area_identity_check(delta: float, dim: int) -> tuple[float, float, float]:
    """Two-cap area fraction by direct quadrature vs. the beta identity.

    lhs integrates sin^(d-2) over the polar angle of the cap and
    normalizes by the full-sphere area; rhs is
    1 - I_{delta^2}(1/2, (d-1)/2).  Returns (lhs, rhs, abs_err).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if dim < 3:
        raise ValueError(f"dim must be >= 3 for the cap quadrature, got {dim}")
    phi = math.acos(delta)
    integral = _gauss_legendre(lambda t: np.sin(t) ** (dim - 2), 0.0, phi)
    # A_cap / A_total = Gamma(d/2) / (sqrt(pi) Gamma((d-1)/2)) * integral
    ratio = math.exp(math.lgamma(dim / 2.0) - math.lgamma((dim - 1) / 2.0)) / math.sqrt(math.pi)
    lhs = 2.0 * ratio * integral
    rhs = reg_incomplete_beta_complement(delta * delta, 0.5, (dim - 1) / 2.0)
    return lhs, rhs, abs(lhs - rhs)


@dataclass
class CosineHistograms:
    """Binned cosine-similarity statistics of a routed batch.

    ``pair_counts[i, j]`` histograms the cosines between tokens routed to
    expert i and tokens routed to expert j (distinct unordered pairs on
    the diagonal).  ``routed_counts[i]`` histograms cos(token, w_i) over
    tokens routed to expert i and ``nonrouted_counts[i]`` over tokens
    routed elsewhere.  Empty expert buckets simply produce all-zero rows.
    """

    bin_edges: np.ndarray
    pair_counts: np.ndarray
    routed_counts: np.ndarray
    nonrouted_counts: np.ndarray

    def iter_rows(self):
        """Yield flat (kind, i, j, bin_lo, bin_hi, count) rows for CSV output."""
        n = self.pair_counts.shape[0]
        bins = self.bin_edges
        for i in range(n):
            for j in range(n):
                for k in range(bins.size - 1):
                    yield ("token_pair", i, j, bins[k], bins[k + 1], int(self.pair_counts[i, j, k]))
        for i in range(n):
            for k in range(bins.size - 1):
                yield ("weight_routed", i, i, bins[k], bins[k + 1], int(self.routed_counts[i, k]))
                yield ("weight_other", i, i, bins[k], bins[k + 1], int(self.nonrouted_counts[i, k]))


def cosine_histograms(
    batch: TokenBatch,
    outcome: RoutingOutcome,
    weights: np.ndarray,
    n_bins: int = 64,
    max_per_expert: int = 256,
) -> CosineHistograms:
    """Histogram token-token and token-gating-weight cosine similarities.

    Token-token histograms are computed per expert pair over at most
    ``max_per_expert`` tokens per expert (the first so many in batch
    order, for determinism).  Token-weight histograms use every token.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    if batch.n_tokens != outcome.expert_of_token.shape[0]:
        raise ValueError("batch and routing outcome disagree on token count")
    if batch.dim != weights.shape[1]:
        raise ValueError("token dim does not match gating dim")
    edges = np.linspace(-1.0, 1.0, n_bins + 1)
    x = batch.tokens / np.linalg.norm(batch.tokens, axis=1, keepdims=True)

    groups = []
    for i in range(n):
        idx = np.flatnonzero(outcome.expert_of_token == i)[:max_per_expert]
        groups.append(x[idx])

    pair_counts = np.zeros((n, n, n_bins), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            a, b = groups[i], groups[j]
            if a.shape[0] == 0 or b.shape[0] == 0:
                continue
            cos = np.clip(a @ b.T, -1.0, 1.0)
            if i == j:
                if a.shape[0] < 2:
                    continue
                iu = np.triu_indices(a.shape[0], k=1)
                vals = cos[iu]
            else:
                vals = cos.ravel()
            hist, _ = np.histogram(vals, bins=edges)
            pair_counts[i, j] = hist
            if i != j:
                pair_counts[j, i] = hist

    wn = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    cos_w = np.clip(x @ wn.T, -1.0, 1.0)
    routed = np.zeros((n, n_bins), dtype=np.int64)
    nonrouted = np.zeros((n, n_bins), dtype=np.int64)
    for i in range(n):
        mine = outcome.expert_of_token == i
        routed[i], _ = np.histogram(cos_w[mine, i], bins=edges)
        nonrouted[i], _ = np.histogram(cos_w[~mine, i], bins=edges)
    return CosineHistograms(
        bin_edges=edges,
        pair_counts=pair_counts,
        routed_counts=routed,
        nonrouted_counts=nonrouted,
    )
