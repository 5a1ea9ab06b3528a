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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .router import RoutingOutcome, TokenBatch, build_block_gating
from .special import erfc, reg_incomplete_beta_complement

_BLOCK_ROWS = 4096  # rows the sphere Monte Carlo draws and reduces at a time


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
    return _p_delta(inp.delta, inp.dim)


def _p_delta(delta, dim: int):
    """p_delta elementwise in delta (a float or an array)."""
    return reg_incomplete_beta_complement(delta * delta, 0.5, (dim - 1) / 2.0)


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _reciprocal_or_inf(n: int, v: np.ndarray) -> np.ndarray:
    """1 / (n * v), and inf where v == 0; a subnormal n * v overflows to inf
    silently, as in float arithmetic."""
    with np.errstate(over="ignore"):
        return np.divide(1.0, n * v, out=np.full_like(v, math.inf), where=v != 0.0)


def _ec_min(delta, dim: int, n: int) -> dict[str, np.ndarray]:
    """ec_min's result fields, by name, as 1-d arrays over a float or a 1-d
    array of deltas; the special functions take the matching path, and the
    exp form is libm's per point.  Raises RuntimeError at the first delta
    whose erfc form is not above its exp form."""
    d2 = delta * delta
    y2 = d2 * dim / (2.0 - d2)
    y = np.sqrt(y2)
    p, e, y2, y = np.atleast_1d(_p_delta(delta, dim), erfc(y), y2, y)
    ec = _reciprocal_or_inf(n, p)
    erfc_bound = _reciprocal_or_inf(n, e)
    exp_bound = np.array([_exp_or_inf(v) for v in y2.tolist()]) / n
    broken = (0.0 < y) & np.isfinite(erfc_bound) & np.isfinite(exp_bound) & ~(erfc_bound > exp_bound)
    if broken.any():
        i = np.argmax(broken)
        raise RuntimeError(
            f"erfc-form bound {float(erfc_bound[i])} not above exp-form {float(exp_bound[i])}"
        )
    return {"p_delta": p, "ec_min": ec, "erfc_bound": erfc_bound, "exp_bound": exp_bound,
            "degenerate": n * p > 1.0, "unbounded": p == 0.0}


def ec_min(inp: CapacityTheoryInput) -> CapacityTheoryResult:
    """Capacity lower bound in all three printed forms.

    The exact value is 1 / (n * p_delta).  The code checks the provable
    leg of the chain, erfc form > exponential form, which reduces to
    exp(y^2) * erfc(y) < 1 for y > 0, and raises RuntimeError if it
    fails.  The exact and erfc forms are both reported so their
    (approximation-order) gap can be inspected.
    """
    fields = _ec_min(inp.delta, inp.dim, inp.n_experts)
    return CapacityTheoryResult(**{name: col[0].item() for name, col in fields.items()})


def empirical_capacity(batch_size: int, capacity_factor: float, expert_parallel: int, n_experts: int) -> int:
    """Per-expert token budget ceil(batch_size * capacity_factor / (expert_parallel * n))."""
    if batch_size <= 0 or capacity_factor <= 0 or expert_parallel <= 0 or n_experts <= 0:
        raise ValueError(
            "all of batch_size, capacity_factor, expert_parallel, n_experts "
            f"must be positive, got ({batch_size}, {capacity_factor}, "
            f"{expert_parallel}, {n_experts})"
        )
    return math.ceil(batch_size * capacity_factor / (expert_parallel * n_experts))


def capacity_curve(dim: int, n_experts: int, delta_grid) -> dict[str, np.ndarray]:
    """Capacity bounds along a grid of cosine thresholds, as columns: ``"delta"``
    (the grid) and then each CapacityTheoryResult field, in field order, each
    a 1-d array with one entry per grid point (float64, or bool for the
    flags).  The whole grid is evaluated at once, with the bits of one ec_min
    call per point.

    The grid must be strictly increasing inside (0, 1); the exact bound is
    then non-decreasing along it because p_delta is decreasing in delta.
    """
    grid = np.array(delta_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("delta grid must be a non-empty 1-d sequence")
    if not ((grid > 0) & (grid < 1)).all():  # NaN is not inside either
        raise ValueError("delta grid values must lie strictly inside (0, 1)")
    if not (np.diff(grid) > 0).all():
        raise ValueError("delta grid must be strictly increasing")
    CapacityTheoryInput(float(grid[0]), dim, n_experts)  # checks dim and n_experts
    return {"delta": grid, **_ec_min(grid, dim, n_experts)}


def _sphere_blocks(cfg: SphereSampleConfig, out: np.ndarray | None = None):
    """Yield one draw's rows, _BLOCK_ROWS at a time, normalized in place (in ``out`` if given)."""
    rng = np.random.default_rng(cfg.seed)
    for start in range(0, cfg.n_samples, _BLOCK_ROWS):
        shape = (min(_BLOCK_ROWS, cfg.n_samples - start), cfg.dim)
        block = rng.standard_normal(shape, out=None if out is None else out[start:start + shape[0]])
        block /= np.linalg.norm(block, axis=1, keepdims=True)
        yield block


def sample_unit_sphere(cfg: SphereSampleConfig) -> TokenBatch:
    """I.i.d. uniform points on the unit sphere via normalized Gaussians,
    drawn and normalized block by block; same bits as one draw."""
    tokens = np.empty((cfg.n_samples, cfg.dim))
    for _ in _sphere_blocks(cfg, out=tokens):  # fills tokens block by block
        pass
    return TokenBatch(tokens=tokens, token_ids=np.arange(cfg.n_samples))


def mc_p_delta(delta: float, dim: int, n_samples: int, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of the two-cap probability, with binomial stderr.

    Counts samples whose |cosine| to a fixed unit axis is >= delta.  The
    cosine of a uniform sphere point to the first axis equals
    g / sqrt(g^2 + s) for g ~ N(0,1) and s ~ chi-square(d-1) (the rest of
    the squared norm of the generating Gaussian), so only the two scalars
    are sampled.  Memory is flat in ``dim``: the ``g`` draw plus one block
    of the chi-square draw that follows it in the stream.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n_samples)
    hits = 0
    for start in range(0, n_samples, _BLOCK_ROWS):
        gb = g[start:start + _BLOCK_ROWS]
        cos = gb / np.sqrt(gb * gb + rng.chisquare(dim - 1, gb.size))
        hits += int(np.count_nonzero(np.abs(cos) >= delta))
    est = hits / n_samples
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
    counts = np.zeros(n_experts, dtype=np.int64)
    for block in _sphere_blocks(SphereSampleConfig(dim=dim, n_samples=n_samples, seed=seed)):
        counts += np.bincount(np.argmax(block @ weights.T, axis=1), minlength=n_experts)
    sigma = math.sqrt((1.0 / n_experts) * (1.0 - 1.0 / n_experts) / n_samples)
    return counts / n_samples, sigma


@functools.lru_cache(maxsize=None)
def _legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node
    count on first use and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre(f, a: float, b: float, n_nodes: int = 160) -> float:
    nodes, weights = _legendre_rule(n_nodes)
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
    rhs = _p_delta(delta, dim)
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


HIST_BINS = 64  # equal-width cosine bins over [-1, 1]
HIST_TOKENS_PER_EXPERT = 256  # tokens per expert in the token-token histograms


def cosine_histograms(batch: TokenBatch, outcome: RoutingOutcome, weights: np.ndarray) -> CosineHistograms:
    """Histogram token-token and token-gating-weight cosine similarities.

    Token-token histograms are computed per expert pair over at most
    ``HIST_TOKENS_PER_EXPERT`` tokens per expert (the first so many in batch
    order, for determinism).  Token-weight histograms use every token.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    if batch.n_tokens != outcome.expert_of_token.shape[0]:
        raise ValueError("batch and routing outcome disagree on token count")
    if batch.dim != weights.shape[1]:
        raise ValueError("token dim does not match gating dim")
    edges = np.linspace(-1.0, 1.0, HIST_BINS + 1)

    groups = []  # only the rows histogrammed are normalized
    for i in range(n):
        rows = batch.tokens[np.flatnonzero(outcome.expert_of_token == i)[:HIST_TOKENS_PER_EXPERT]]
        groups.append(rows / np.linalg.norm(rows, axis=1, keepdims=True))

    pair_counts = np.zeros((n, n, HIST_BINS), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            cos = np.clip(groups[i] @ groups[j].T, -1.0, 1.0)
            vals = cos[np.triu_indices(len(cos), k=1)] if i == j else cos.ravel()
            pair_counts[i, j], _ = np.histogram(vals, bins=edges)
            pair_counts[j, i] = pair_counts[i, j]

    wn = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    cos_w = np.empty((batch.n_tokens, n))
    for start in range(0, batch.n_tokens, _BLOCK_ROWS):
        rows = batch.tokens[start:start + _BLOCK_ROWS]
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        np.clip(rows @ wn.T, -1.0, 1.0, out=cos_w[start:start + _BLOCK_ROWS])
    routed = np.zeros((n, HIST_BINS), dtype=np.int64)
    nonrouted = np.zeros((n, HIST_BINS), dtype=np.int64)
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
