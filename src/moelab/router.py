"""Token routing: block-orthogonal gating, scored top-1 selection with
capacity enforcement, and the hash baseline router.  A dense (switch)
router is ``route_top1(tokens @ W.T)``: raw inner products, no relu.

This is the one place where scores become probabilities, an assignment,
a gate and the batch statistics ``f`` and ``P``: every router returns a
:class:`RoutingOutcome`, and training, ``route-sim`` and ``moe_forward``
consume it as is.

The gating matrix built here scores expert ``i`` by the mean of the
``i``-th coordinate block of the token, which is equivalent to a fixed
dense layer whose rows are mutually orthogonal indicator blocks scaled by
``n_experts / dim``.  All routing operations are pure functions of their
inputs plus an explicit seed, so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

_BLOCK_ROWS = 4096  # rows a batch is drawn, routed or reduced in at a time
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


@dataclass
class TokenBatch:
    """A batch of token activation vectors plus stable integer ids.

    ``labels`` optionally carries a cluster/class identity for synthetic
    corpora.
    """

    tokens: np.ndarray
    token_ids: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=float)
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        if self.tokens.ndim != 2:
            raise ValueError(f"tokens must be 2-d, got shape {self.tokens.shape}")
        if self.token_ids.shape != (self.tokens.shape[0],):
            raise ValueError("token_ids must have one entry per token")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.tokens.shape[0],):
                raise ValueError("labels must have one entry per token")

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[0]

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]


@dataclass
class RoutingOutcome:
    """Per-token routing decisions plus the batch statistics they induce.

    ``probs`` holds each token's (T, n) routing distribution and
    ``expert_of_token`` the expert it is sent to.  Everything else is
    derived once, at construction: ``gate_value`` is the probability of
    the chosen expert, ``f`` the fraction of tokens assigned to each
    expert and ``P`` the mean routing probability per expert.  ``f`` and
    ``P`` count all assignments before any capacity drop (dropping only
    affects which tokens an expert actually executes); ``dropped``
    defaults to no drops.  A batch without tokens is rejected, since ``f``
    and ``P`` are means over its tokens.
    """

    expert_of_token: np.ndarray
    probs: np.ndarray
    dropped: np.ndarray | None = None
    gate_value: np.ndarray = field(init=False)
    f: np.ndarray = field(init=False)
    P: np.ndarray = field(init=False)

    def __post_init__(self):
        t, n = self.probs.shape
        if t == 0:
            raise ValueError("routing needs at least one token")
        if self.dropped is None:
            self.dropped = np.zeros(t, dtype=bool)
        self.gate_value = self.probs[np.arange(t), self.expert_of_token]
        self.f = np.bincount(self.expert_of_token, minlength=n) / t
        self.P = self.probs.mean(axis=0)

    @property
    def n_experts(self) -> int:
        return self.f.shape[0]

    def served_counts(self) -> np.ndarray:
        """Tokens each expert actually executes (assignment minus drops)."""
        keep = self.expert_of_token[~self.dropped]
        return np.bincount(keep, minlength=self.n_experts)

    def assigned_counts(self) -> np.ndarray:
        return np.bincount(self.expert_of_token, minlength=self.n_experts)


def build_block_gating(n_experts: int, dim: int) -> np.ndarray:
    """Build the fixed block gating matrix.

    Row ``i`` holds ``n/d`` on coordinates ``[i*d/n, (i+1)*d/n)`` and zero
    elsewhere, so rows are pairwise orthogonal with equal norms
    ``sqrt(n/d)`` by construction.  ``dim`` must be an exact multiple of
    ``n_experts`` so the blocks have equal size; anything else would give
    the rows unequal norms and is rejected rather than padded.
    """
    if n_experts < 1:
        raise ValueError(f"n_experts must be >= 1, got {n_experts}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if dim % n_experts != 0:
        raise ValueError(
            f"dim={dim} is not divisible by n_experts={n_experts}; "
            "block gating requires dim to be an exact multiple of n_experts"
        )
    block = dim // n_experts
    weights = np.zeros((n_experts, dim))
    value = n_experts / dim
    for i in range(n_experts):
        weights[i, i * block : (i + 1) * block] = value
    return weights


def gate_scores(
    tokens: np.ndarray,
    weights: np.ndarray,
    noise_std: float = 0.0,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Pre-softmax gating scores: relu(w_i . x_m + eps_i) per (token, expert).

    ``tokens`` is the (T, d) token array.  The optional noise is zero-mean
    Gaussian from ``np.random.default_rng(seed)`` (a Generator is drawn from
    as is), drawn _BLOCK_ROWS rows at a time with the bits of one (T, n)
    draw, so entry (m, i) is a pure function of (seed, m, i) regardless of
    evaluation order.  ``noise_std=0`` is fully deterministic.  The result
    is a fresh array that the noise and the relu act on in place; no input
    is written.
    """
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    weights = np.asarray(weights, dtype=float)
    if tokens.shape[1] != weights.shape[1]:
        raise ValueError(
            f"token dim {tokens.shape[1]} does not match gating dim {weights.shape[1]}"
        )
    scores = tokens @ weights.T
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        for start in range(0, scores.shape[0], _BLOCK_ROWS):
            block = scores[start:start + _BLOCK_ROWS]
            block += rng.normal(0.0, noise_std, size=block.shape)
    return np.maximum(scores, 0.0, out=scores)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction, in a fresh array that it
    shifts, exponentiates and normalizes in place; ``scores`` is not written."""
    scores = np.asarray(scores, dtype=float)
    e = scores - scores.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_backward(probs: np.ndarray, d_probs: np.ndarray) -> np.ndarray:
    """Gradient with respect to the scores, given the (T, n) ``probs`` that
    :func:`softmax` returned and the gradient ``d_probs`` with respect to
    them: the vector-Jacobian product probs * (d_probs - rowdot(d_probs, probs))."""
    inner = np.einsum("ij,ij->i", d_probs, probs)
    return probs * (d_probs - inner[:, None])


def route_top1(scores: np.ndarray) -> RoutingOutcome:
    """Send every token to the expert with the largest softmax score.

    Ties (including all-zero rows coming out of the relu) resolve to the
    lowest expert index.  The gate value is the winning softmax
    probability, so routing is invariant under positive affine rescaling
    of the scores while gate values are not.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-d, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite entries")
    return top1(scores)


def top1(scores: np.ndarray) -> RoutingOutcome:
    """The top-1 step of :func:`route_top1` without its input check.

    For callers that computed the (T, n) float scores themselves and must
    see non-finite values propagate (training reports divergence from the
    loss rather than failing inside the router).
    """
    return RoutingOutcome(expert_of_token=np.argmax(scores, axis=1), probs=softmax(scores))


def apply_capacity(outcome: RoutingOutcome, cap: int,
                   assigned_before: np.ndarray | None = None) -> RoutingOutcome:
    """Mark tokens beyond the first ``cap`` per expert (in batch order) as dropped.

    Expert i's rank counts ``assigned_before[i]`` tokens of earlier blocks
    first, so chained blocks drop what their whole batch drops.  Assignment,
    gate values, ``f`` and ``P`` are untouched; dropped tokens simply bypass
    their expert downstream.
    """
    if cap < 1:
        raise ValueError(f"capacity must be >= 1, got {cap}")
    expert = outcome.expert_of_token
    t = expert.shape[0]
    order = np.argsort(expert, kind="stable")
    sorted_e = expert[order]
    starts = np.searchsorted(sorted_e, np.arange(outcome.n_experts))
    starts = starts if assigned_before is None else starts - assigned_before
    rank_sorted = np.arange(t) - starts[sorted_e]
    rank = np.empty(t, dtype=np.int64)
    rank[order] = rank_sorted
    return replace(outcome, dropped=outcome.dropped | (rank >= cap))


def fnv1a64(token_ids) -> np.ndarray:
    """FNV-1a 64-bit hash of each id's 8-byte little-endian encoding.

    Bit-exact across platforms; this is the stable hash contract for the
    hash router.
    """
    ids = np.atleast_1d(np.asarray(token_ids)).astype(np.uint64)
    h = np.full(ids.shape, _FNV_OFFSET, dtype=np.uint64)
    for shift in range(0, 64, 8):
        byte = (ids >> np.uint64(shift)) & np.uint64(0xFF)
        h = (h ^ byte) * _FNV_PRIME
    return h


def hash_route(token_ids, n_experts: int) -> RoutingOutcome:
    """Stateless balanced-hash baseline: expert = fnv1a64(id) mod n.

    Deterministic across runs and platforms.  Each token's routing
    distribution is a point mass (one-hot ``probs``), so every token is
    served with gate value 1 and the mean routing probability P coincides
    with f.
    """
    if n_experts < 1:
        raise ValueError(f"n_experts must be >= 1, got {n_experts}")
    ids = np.atleast_1d(np.asarray(token_ids, dtype=np.int64))
    expert = (fnv1a64(ids) % np.uint64(n_experts)).astype(np.int64)
    return RoutingOutcome(expert_of_token=expert, probs=np.eye(n_experts)[expert])
