"""Independent reference computations for checking CLI artifacts.

Each function recomputes what a moelab command should have written, from
the documented model rather than by calling the library, so a broken
optimisation in the library cannot also break its own reference.
"""

from __future__ import annotations

import math

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(value: int) -> int:
    """FNV-1a 64-bit hash of the 8-byte little-endian encoding of ``value``."""
    h = _FNV_OFFSET
    for byte in value.to_bytes(8, "little"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def ring_cost(volume: np.ndarray, topo: dict) -> float:
    """Ring All-to-All: D-1 rounds, round r pairs s with (s + r) mod D and
    costs its slowest pair (latency plus bytes over the link's bandwidth)."""
    d = volume.shape[0]
    node = np.arange(d) // topo["devices_per_node"]
    senders = np.arange(d)[None, :]
    receivers = (senders + np.arange(1, d)[:, None]) % d
    same = node[senders] == node[receivers]
    lat = np.where(same, topo["intra_latency"], topo["inter_latency"])
    bw = np.where(same, topo["intra_bw"], topo["inter_bw"])
    return float((lat + volume[senders, receivers] / bw).max(axis=1).sum())


def comm_costs(volume: np.ndarray, topo: dict, g: int) -> dict:
    """Plain and group-wise exchange cost plus the bytes each phase moves.

    Group-wise: inter-node bytes shrink to 1/g in the All-to-All, then each
    group of g consecutive devices ring-gathers its remote payload, which
    moves (g - 1) times the gathered bytes and costs
    (g-1)/g * gathered / intra_bw + (g-1) * intra_latency per group.
    """
    d = volume.shape[0]
    node = np.arange(d) // topo["devices_per_node"]
    inter = node[:, None] != node[None, :]
    sharded = np.where(inter, volume / g, volume)
    received = np.where(inter, sharded, 0.0).sum(axis=0)
    gathered = received.reshape(-1, g).sum(axis=1)
    gather_cost = 0.0
    if g > 1:
        gather_cost = float(
            ((g - 1) / g * gathered / topo["intra_bw"] + (g - 1) * topo["intra_latency"]).max()
        )
    return {
        "plain": ring_cost(volume, topo),
        "grouped": ring_cost(sharded, topo) + gather_cost,
        "dispatch_bytes": float(sharded.sum()),
        "allgather_bytes": float((g - 1) * gathered.sum()),
        "input_bytes": float(volume.sum()),
    }


def two_cap_probability(delta: np.ndarray, dim: int) -> np.ndarray:
    """P(|cos(x, axis)| >= delta) for x uniform on the sphere in ``dim``.

    cos^2 of a uniform point is Beta(1/2, (d-1)/2), the law of T^2/(nu+T^2)
    for Student-t T with nu = d-1 degrees of freedom, so the probability
    is 1 - A(t|nu) at sin(theta) = delta, where A is the finite
    trigonometric series of Abramowitz & Stegun 26.7.3 / 26.7.4.  Absolute
    error is a few ulps times the number of terms; relative accuracy is
    lost once the result drops far below 1e-6.
    """
    delta = np.asarray(delta, dtype=float)
    nu = dim - 1
    s = delta
    c2 = 1.0 - delta * delta
    c = np.sqrt(c2)
    theta = np.arcsin(delta)
    if nu % 2 == 0:
        # sin(theta) * sum_{k < nu/2} (2k-1)!!/(2k)!! cos^(2k)
        k = np.arange(1, nu // 2)
        coef = np.concatenate(([1.0], np.cumprod((2 * k - 1) / (2 * k))))
        powers = c2[..., None] ** np.arange(nu // 2)
        a = s * (powers * coef).sum(axis=-1)
    elif nu == 1:
        a = 2.0 * theta / math.pi
    else:
        # (2/pi) (theta + sin(theta) * sum_{k <= (nu-3)/2} (2k)!!/(2k+1)!! cos^(2k+1))
        k = np.arange(1, (nu - 1) // 2)
        coef = np.concatenate(([1.0], np.cumprod((2 * k) / (2 * k + 1))))
        powers = c[..., None] * c2[..., None] ** np.arange((nu - 1) // 2)
        a = 2.0 / math.pi * (theta + s * (powers * coef).sum(axis=-1))
    return 1.0 - a


def two_cap_tail(delta: np.ndarray, dim: int, chunk: int = 1024) -> np.ndarray:
    """The same probability as the remainder of the A&S series.

    Summed to infinity the series of :func:`two_cap_probability` is exactly
    1 (it expands 1/sqrt(1-x^2), or arcsin(x)/sqrt(1-x^2) for odd nu, at
    x = cos(theta)), so 1 - A is the sum of the terms it leaves out.  Those
    are all positive, so there is no cancellation and the result keeps full
    relative accuracy in the tail.  Terms shrink by about cos^2(theta) =
    1 - delta^2 each, so use it where delta * sqrt(dim) is a few or more.
    """
    delta = np.asarray(delta, dtype=float)
    if not ((delta > 0.0) & (delta < 1.0)).all():
        raise ValueError("the tail series needs 0 < delta < 1")
    c2 = 1.0 - delta * delta
    nu = dim - 1
    if nu % 2 == 0:
        # s * sum_{k >= nu/2} (2k-1)!!/(2k)!! cos^(2k)
        k = nu // 2
        log_coef = math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) - k * math.log(4.0)
        term = np.exp(log_coef + k * np.log(c2))
        scale, grow = delta, (1, 2)
    else:
        # (2/pi) * s * sum_{k >= (nu-1)/2} (2k)!!/(2k+1)!! cos^(2k+1)
        k = (nu - 1) // 2
        log_coef = k * math.log(4.0) + 2 * math.lgamma(k + 1) - math.lgamma(2 * k + 2)
        term = np.exp(log_coef + (k + 0.5) * np.log(c2))
        scale, grow = 2.0 / math.pi * delta, (2, 3)
    total = np.zeros_like(delta)
    while True:
        ks = np.arange(k, k + chunk)
        # ratio of term k+1 to term k is cos^2 * (2k + grow[0]) / (2k + grow[1])
        ratios = c2[:, None] * ((2 * ks + grow[0]) / (2 * ks + grow[1]))[None, :]
        terms = term[:, None] * np.cumprod(np.concatenate([np.ones_like(c2)[:, None], ratios[:, :-1]], axis=1),
                                           axis=1)
        total += terms.sum(axis=1)
        term = terms[:, -1] * ratios[:, -1]
        k += chunk
        if (term <= 1e-17 * total).all():
            return scale * total


def sphere_token_chunks(seed: int, n: int, dim: int, chunk: int = 8192):
    """The token stream moelab draws for a seed (normalised Gaussians), in
    row chunks so the reference never holds the whole batch: the generator
    fills rows in order, so chunked draws equal one big draw."""
    rng = np.random.default_rng(seed)
    for start in range(0, n, chunk):
        raw = rng.standard_normal((min(chunk, n - start), dim))
        yield raw / np.linalg.norm(raw, axis=1, keepdims=True)


def block_scores(tokens: np.ndarray, n_experts: int) -> np.ndarray:
    """Grouped average pooling: expert i scores the mean of block i."""
    t, d = tokens.shape
    return tokens.reshape(t, n_experts, d // n_experts).mean(axis=2)


def block_routing(seed: int, n: int, dim: int, n_experts: int, relu: bool) -> tuple[np.ndarray, np.ndarray]:
    """Top-1 expert per token (ties to the lowest index) and the mean softmax
    probability per expert, for block gating of the seed's sphere tokens."""
    assign, prob_sum = [], np.zeros(n_experts)
    for tokens in sphere_token_chunks(seed, n, dim):
        scores = block_scores(tokens, n_experts)
        if relu:
            scores = np.maximum(scores, 0.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        prob_sum += (e / e.sum(axis=1, keepdims=True)).sum(axis=0)
        assign.append(np.argmax(scores, axis=1))
    return np.concatenate(assign), prob_sum / n


def uniform_balance_z(seed: int, n_samples: int = 100_000) -> list[float]:
    """max |f_i - 1/n| in binomial sigmas for the two verify cases, which
    route by the raw (unclipped) block scores."""
    out = []
    for dim, n in ((64, 8), (128, 16)):
        assign, _ = block_routing(seed, n_samples, dim, n, relu=False)
        f = np.bincount(assign, minlength=n) / n_samples
        sigma = math.sqrt((1.0 / n) * (1.0 - 1.0 / n) / n_samples)
        out.append(float(np.abs(f - 1.0 / n).max() / sigma))
    return out


MC_GRID = (
    (0.03125, 1024), (0.015625, 4096), (0.25, 16), (0.5, 8), (0.1, 64),
    (0.2, 32), (0.3, 12), (0.15, 48), (0.05, 128), (0.35, 10),
)


def cap_probability_mc_z(seed: int, n_samples: int = 1_000_000) -> float:
    """Worst |MC - analytic| in standard errors over the verify grid; case i
    samples g ~ N(0,1), s ~ chi2(d-1) from seed + i, cos = g / sqrt(g^2+s)."""
    worst = 0.0
    for i, (delta, dim) in enumerate(MC_GRID):
        rng = np.random.default_rng(seed + i)
        g = rng.standard_normal(n_samples)
        rest = rng.chisquare(dim - 1, n_samples)
        est = float(np.mean(np.abs(g / np.sqrt(g * g + rest)) >= delta))
        stderr = math.sqrt(est * (1.0 - est) / n_samples)
        analytic = float(two_cap_probability(np.array([delta]), dim)[0])
        worst = max(worst, abs(est - analytic) / max(stderr, 1e-12))
    return worst
