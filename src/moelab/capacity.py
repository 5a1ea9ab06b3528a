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

from .router import _BLOCK_ROWS, TokenBatch, apply_capacity, build_block_gating
from .special import erfc, reg_incomplete_beta


@dataclass(frozen=True)
class CapacityTheoryResult:
    """Capacity bound in its exact, erfc, and exponential forms, each field
    a float (a bool for the flags) for one delta or a 1-d array over many.

    ``degenerate`` flags queries where n * p_delta > 1, i.e. the premise
    that 1/(n p_delta) is a probability's reciprocal is vacuous; the
    values are still reported.  ``unbounded`` flags p_delta == 0, where
    the exact bound is infinite.
    """

    p_delta: float | np.ndarray
    ec_min: float | np.ndarray
    erfc_bound: float | np.ndarray
    exp_bound: float | np.ndarray
    degenerate: bool | np.ndarray
    unbounded: bool | np.ndarray


@dataclass(frozen=True)
class SphereSampleConfig:
    dim: int
    n_samples: int
    seed: int | np.random.Generator = 0  # a Generator is drawn from as is

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


def _check_query(delta, dim: int, n_experts: int = 1):
    """Raise ValueError at the first delta outside [0, 1] (NaN included), a
    dim below 2, an n_experts below 1, or a dim or n_experts too large for
    a float (the bound is float arithmetic in both)."""
    flat = np.ravel(delta)
    bad = flat[~((flat >= 0.0) & (flat <= 1.0))].tolist()
    if bad:
        raise ValueError(f"delta must lie in [0, 1], got {bad[0]}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if n_experts < 1:
        raise ValueError(f"n_experts must be >= 1, got {n_experts}")
    for name, value in (("dim", dim), ("n_experts", n_experts)):
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None


def p_delta(delta, dim: int):
    """Two-cap assignment probability 1 - I_{delta^2}(1/2, (d-1)/2),
    elementwise in delta: a float gives a float and an array an array of
    its shape.  It is evaluated as the identity I_{1-delta^2}((d-1)/2, 1/2),
    so the deep tail (delta close to 1) comes straight from the continued
    fraction, at full relative accuracy."""
    _check_query(delta, dim)
    delta = np.asarray(delta, dtype=float)
    return reg_incomplete_beta(1.0 - delta * delta, (dim - 1) / 2.0, 0.5)


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


def ec_min(delta, dim: int, n_experts: int) -> CapacityTheoryResult:
    """Capacity lower bound in all three printed forms, elementwise in
    delta: a float gives float fields (and bool flags), a 1-d array gives
    1-d array fields, float64 or bool, with one entry per delta.

    The exact value is 1 / (n * p_delta).  The code checks the provable
    leg of the chain, erfc form > exponential form, which reduces to
    exp(y^2) * erfc(y) < 1 for y > 0, and raises RuntimeError naming
    (delta, dim) at the first delta where it fails.  The exact and erfc
    forms are both reported so their (approximation-order) gap can be
    inspected; the exp form is libm's, point by point.
    """
    _check_query(delta, dim, n_experts)
    d = np.asarray(delta, dtype=float)
    d2 = d * d
    y2 = d2 * dim / (2.0 - d2)
    y = np.sqrt(y2)
    p, e, y2, y, d = np.atleast_1d(p_delta(d, dim), erfc(y), y2, y, d)
    ec = _reciprocal_or_inf(n_experts, p)
    erfc_bound = _reciprocal_or_inf(n_experts, e)
    exp_bound = np.array([_exp_or_inf(v) for v in y2.tolist()]) / n_experts
    broken = (0.0 < y) & np.isfinite(erfc_bound) & np.isfinite(exp_bound) & ~(erfc_bound > exp_bound)
    if broken.any():
        i = np.argmax(broken)
        raise RuntimeError(f"erfc-form bound {float(erfc_bound[i])} not above exp-form "
                           f"{float(exp_bound[i])} at {(float(d[i]), dim)}")
    fields = {"p_delta": p, "ec_min": ec, "erfc_bound": erfc_bound, "exp_bound": exp_bound,
              "degenerate": n_experts * p > 1.0, "unbounded": p == 0.0}
    if np.ndim(delta) == 0:
        fields = {name: col[0].item() for name, col in fields.items()}
    return CapacityTheoryResult(**fields)


def empirical_capacity(batch_size: int, capacity_factor: float, expert_parallel: int, n_experts: int) -> int:
    """Per-expert token budget ceil(batch_size * capacity_factor / (expert_parallel * n))."""
    if batch_size <= 0 or capacity_factor <= 0 or expert_parallel <= 0 or n_experts <= 0:
        raise ValueError(
            "all of batch_size, capacity_factor, expert_parallel, n_experts "
            f"must be positive, got ({batch_size}, {capacity_factor}, "
            f"{expert_parallel}, {n_experts})"
        )
    budget = batch_size * capacity_factor / (expert_parallel * n_experts)
    if not math.isfinite(budget):
        raise ValueError(f"capacity budget {batch_size} * {capacity_factor} / "
                         f"({expert_parallel} * {n_experts}) is not finite")
    return math.ceil(budget)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The (rows, 1) Euclidean norms of a real 2-d array: the bits of
    ``np.linalg.norm(x, axis=1, keepdims=True)``, without its ``x.conj()`` copy."""
    return np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True))


def _sphere_blocks(cfg: SphereSampleConfig, out: np.ndarray | None = None):
    """Yield one draw's rows, _BLOCK_ROWS at a time, normalized in place (in ``out`` if given)."""
    rng = np.random.default_rng(cfg.seed)
    for start in range(0, cfg.n_samples, _BLOCK_ROWS):
        shape = (min(_BLOCK_ROWS, cfg.n_samples - start), cfg.dim)
        block = rng.standard_normal(shape, out=None if out is None else out[start:start + shape[0]])
        block /= _row_norms(block)
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
    _check_query(delta, dim)
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


_GL_NODES = 160  # Gauss-Legendre nodes of the cap quadrature


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once on first
    use and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def cap_area_identity_check(delta, dim: int):
    """Two-cap area fraction by direct quadrature vs. the beta identity,
    elementwise in delta (a float or an array).

    lhs integrates sin^(d-2) over the polar angle of the cap and
    normalizes by the full-sphere area, one quadrature per delta; rhs is
    1 - I_{delta^2}(1/2, (d-1)/2), evaluated once over all deltas.
    Returns (lhs, rhs, abs_err): three floats for a float delta, else
    three arrays of delta's shape.
    """
    if dim < 3:
        raise ValueError(f"dim must be >= 3 for the cap quadrature, got {dim}")
    rhs = p_delta(delta, dim)  # checks delta
    # A_cap / A_total = Gamma(d/2) / (sqrt(pi) Gamma((d-1)/2)) * integral
    ratio = math.exp(math.lgamma(dim / 2.0) - math.lgamma((dim - 1) / 2.0)) / math.sqrt(math.pi)
    nodes, weights = _legendre_rule()
    halves = [0.5 * math.acos(v) for v in np.ravel(delta).tolist()]  # over [0, acos(delta)], midpoint = half-width
    lhs = np.array([2.0 * ratio * (h * np.sum(weights * np.sin(h + h * nodes) ** (dim - 2)))
                    for h in halves]).reshape(np.shape(delta))
    err = np.abs(lhs - rhs)
    return (float(lhs), rhs, float(err)) if lhs.ndim == 0 else (lhs, rhs, err)


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


def cosine_histograms(blocks, weights: np.ndarray) -> CosineHistograms:
    """Histogram token-token and token-gating-weight cosine similarities.

    ``blocks`` yields a batch as (tokens, expert_of_token) pairs in order,
    one pair for a whole batch.  Token-token histograms are computed per
    expert pair over at most ``HIST_TOKENS_PER_EXPERT`` tokens per expert
    (the first so many in batch order, for determinism), the only rows kept
    past their block.  Token-weight histograms use every token; they are
    binned _BLOCK_ROWS tokens at a time and the integer counts summed, so no
    (T, n) cosine table is held.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    edges = np.linspace(-1.0, 1.0, HIST_BINS + 1)
    wn = weights / _row_norms(weights)
    kept = [np.empty((0, weights.shape[1])) for _ in range(n)]
    routed = np.zeros((n, HIST_BINS), dtype=np.int64)
    nonrouted = np.zeros((n, HIST_BINS), dtype=np.int64)
    for tokens, expert_of_token in blocks:
        if tokens.shape[0] != expert_of_token.shape[0]:
            raise ValueError("batch and routing outcome disagree on token count")
        if tokens.shape[1] != weights.shape[1]:
            raise ValueError("token dim does not match gating dim")
        for i in range(n):
            if len(kept[i]) < HIST_TOKENS_PER_EXPERT:
                mine = np.flatnonzero(expert_of_token == i)[:HIST_TOKENS_PER_EXPERT - len(kept[i])]
                kept[i] = np.concatenate([kept[i], tokens[mine]])
        for start in range(0, tokens.shape[0], _BLOCK_ROWS):
            rows = tokens[start:start + _BLOCK_ROWS]
            cos = np.clip((rows / _row_norms(rows)) @ wn.T, -1.0, 1.0)
            expert = expert_of_token[start:start + _BLOCK_ROWS]
            for i in range(n):
                mine = expert == i
                routed[i] += np.histogram(cos[mine, i], bins=edges)[0]
                nonrouted[i] += np.histogram(cos[~mine, i], bins=edges)[0]

    groups = [rows / _row_norms(rows) for rows in kept]  # only the rows histogrammed are normed
    pair_counts = np.zeros((n, n, HIST_BINS), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            cos = np.clip(groups[i] @ groups[j].T, -1.0, 1.0)
            vals = cos[np.triu_indices(len(cos), k=1)] if i == j else cos.ravel()
            pair_counts[i, j], _ = np.histogram(vals, bins=edges)
            pair_counts[j, i] = pair_counts[i, j]
    return CosineHistograms(
        bin_edges=edges,
        pair_counts=pair_counts,
        routed_counts=routed,
        nonrouted_counts=nonrouted,
    )



def route_sphere(cfg: SphereSampleConfig, route, n_experts: int, cap: int | None = None, weights=None):
    """Route ``cfg``'s sphere draw one _BLOCK_ROWS block at a time, so memory
    is one block plus per-expert state whatever the sample.  ``route(batch)``
    routes a block whose ids continue the blocks before it; ``cap`` budgets
    each expert over the whole draw, and ``weights`` also bins the blocks
    through :func:`cosine_histograms`.  Returns per-expert (assigned, served,
    P) and the histograms (None without weights), the bits of one pass over
    the whole batch: P is summed in row order and divided once."""
    sphere = np.random.default_rng(cfg.seed)
    assigned, served = np.zeros((2, n_experts), dtype=np.int64)
    p_sum = np.zeros((1, n_experts))

    def blocks():
        for start in range(0, cfg.n_samples, _BLOCK_ROWS):
            batch = sample_unit_sphere(SphereSampleConfig(cfg.dim, min(_BLOCK_ROWS, cfg.n_samples - start), sphere))
            batch.token_ids += start
            outcome = route(batch)
            if cap is not None:
                outcome = apply_capacity(outcome, cap, assigned)
            assigned[:] += outcome.assigned_counts()
            served[:] += outcome.served_counts()
            p_sum[:] = np.add.reduce(np.concatenate([p_sum, outcome.probs]), axis=0, keepdims=True)
            yield batch.tokens, outcome.expert_of_token

    stream = blocks()
    histograms = None if weights is None else cosine_histograms(stream, weights)
    for _ in stream:  # drives the draw when no histograms consume it
        pass
    return assigned, served, p_sum[0] / cfg.n_samples, histograms
