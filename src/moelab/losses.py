"""Training losses: load-balance penalty, locality KL penalty and token
cross-entropy, plus analytic gradients with a finite-difference checker.

Distributions over experts are plain 1-d numpy arrays that sum to one.
The locality target assigns mass ``1 - epsilon_smooth`` uniformly to the
experts resident on the source node and smooths the remainder over remote
experts so the KL divergence stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .router import softmax


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.01
    mu: float = 0.01
    epsilon_smooth: float = 1e-3

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if not 0.0 < self.epsilon_smooth < 1.0:
            raise ValueError(
                f"epsilon_smooth must lie in (0, 1), got {self.epsilon_smooth}"
            )


def _check_distribution(p: np.ndarray, name: str, tol: float = 1e-6) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"{name} must be 1-d")
    if (p < 0).any():
        raise ValueError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > tol:
        raise ValueError(f"{name} sums to {p.sum()!r}, expected 1")
    return p


def aux_loss(f, P, alpha: float) -> float:
    """Load-balance penalty alpha * n * sum_i f_i P_i.

    Minimized (value alpha) when both the hard assignment fractions f and
    the mean routing probabilities P are uniform; a collapsed one-hot pair
    scores alpha * n.  Differentiable in P with f treated as constant.
    """
    f = _check_distribution(f, "f")
    P = _check_distribution(P, "P")
    if f.shape != P.shape:
        raise ValueError("f and P must have the same length")
    n = f.shape[0]
    return float(alpha * n * np.dot(f, P))


def aux_loss_grad_p(f, alpha: float) -> np.ndarray:
    """d(aux_loss)/dP_i = alpha * n * f_i."""
    f = np.asarray(f, dtype=float)
    return alpha * f.shape[0] * f


def make_local_target(expert_nodes, source_node: int, epsilon_smooth: float = 1e-3) -> np.ndarray:
    """Target routing distribution concentrated on node-local experts.

    Experts on ``source_node`` split mass ``1 - epsilon_smooth`` evenly;
    remote experts split ``epsilon_smooth``.  With no remote experts the
    smoothing is unused and the target is exactly uniform; with no local
    experts the rule falls back to uniform over all experts.
    """
    expert_nodes = np.asarray(expert_nodes, dtype=np.int64)
    n = expert_nodes.shape[0]
    if n == 0:
        raise ValueError("empty expert placement")
    local = expert_nodes == source_node
    n_local = int(local.sum())
    if n_local == 0 or n_local == n:
        return np.full(n, 1.0 / n)
    target = np.empty(n)
    target[local] = (1.0 - epsilon_smooth) / n_local
    target[~local] = epsilon_smooth / (n - n_local)
    return target


def locality_loss(d_c, d_l, mu: float) -> float:
    """KL divergence penalty mu * KL(d_c || d_l), with 0 ln 0 = 0.

    Raises if the target has a zero where the current distribution puts
    mass (infinite KL); the epsilon smoothing of the target exists
    precisely to rule that out.
    """
    d_c = _check_distribution(d_c, "d_c")
    d_l = np.asarray(d_l, dtype=float)
    if d_c.shape != d_l.shape:
        raise ValueError("distributions must have the same length")
    support = d_c > 0
    if (d_l[support] <= 0).any():
        raise ValueError("target distribution is zero on the support of d_c")
    kl = float(np.sum(d_c[support] * np.log(d_c[support] / d_l[support])))
    return mu * kl


def locality_loss_grad(d_c, d_l, mu: float) -> np.ndarray:
    """d(locality_loss)/d(d_c_i) = mu * (ln(d_c_i / d_l_i) + 1), and 0 where
    d_c_i is 0: there 0 ln 0 = 0 keeps the KL term locally flat."""
    d_c = np.asarray(d_c, dtype=float)
    d_l = np.asarray(d_l, dtype=float)
    support = d_c > 0
    safe = np.where(support, d_c, 1.0)
    return np.where(support, mu * (np.log(safe / d_l) + 1.0), 0.0)


def locality_loss_grad_logits(logits, d_l, mu: float) -> np.ndarray:
    """Gradient of locality_loss(softmax(logits), d_l, mu) w.r.t. logits.

    The softmax chain rule over :func:`locality_loss_grad`: with
    s = softmax(logits) and g its gradient at s, this is s (g - s . g);
    identically zero when s == d_l.
    """
    s = softmax(np.asarray(logits, dtype=float)[None, :])[0]
    g = locality_loss_grad(s, d_l, mu)
    return s * (g - np.dot(s, g))


def cross_entropy(logits, targets) -> float:
    """Summed token cross-entropy: sum_t -log softmax(logits_t)[target_t].

    A sum, not a mean, over tokens; see :func:`mean_cross_entropy` for the
    per-token value.  Stabilized by max-subtraction.
    """
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=np.int64)
    t, n_classes = logits.shape
    if targets.shape != (t,):
        raise ValueError("targets must have one entry per row of logits")
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValueError(
            f"targets out of range [0, {n_classes}): "
            f"min {targets.min()}, max {targets.max()}"
        )
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.sum(lse - logits[np.arange(t), targets]))


def mean_cross_entropy(logits, targets) -> float:
    """Per-token mean of :func:`cross_entropy`, exposed for logging and
    as a scale-stable training objective."""
    logits = np.asarray(logits, dtype=float)
    return cross_entropy(logits, targets) / logits.shape[0]


def cross_entropy_grad(logits, targets) -> np.ndarray:
    """d(cross_entropy)/d(logits) = softmax(logits) - onehot(targets)."""
    logits = np.asarray(logits, dtype=float)
    targets = np.asarray(targets, dtype=np.int64)
    grad = softmax(logits)
    grad[np.arange(logits.shape[0]), targets] -= 1.0
    return grad


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    max_abs_err: float
    n_coords: int
    passed: bool


def grad_check(fn, grad_fn, x0, rel_tol: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Compare an analytic gradient against central finite differences.

    ``fn`` maps a flat parameter vector to a scalar; ``grad_fn`` returns
    its analytic gradient at the same point.  Relative error per
    coordinate is |a - n| / max(|a|, |n|, 1e-8).
    """
    x0 = np.asarray(x0, dtype=float)
    analytic = np.asarray(grad_fn(x0), dtype=float).ravel()
    numeric = np.empty_like(analytic)
    flat = x0.ravel().copy()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(flat.reshape(x0.shape))
        flat[i] = orig - step
        lo = fn(flat.reshape(x0.shape))
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * step)
    abs_err = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel_err = abs_err / scale
    max_rel = float(rel_err.max()) if rel_err.size else 0.0
    return GradCheckReport(
        max_rel_err=max_rel,
        max_abs_err=float(abs_err.max()) if abs_err.size else 0.0,
        n_coords=int(flat.size),
        passed=max_rel <= rel_tol,
    )
