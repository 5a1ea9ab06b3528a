"""Desk-scale trainable mixture-of-experts layer over synthetic clustered
corpora.

The layer is a top-1 routed bank of two-layer GeLU feed-forward experts
(tokens over an expert's capacity pass through unchanged), trained by
plain full-batch gradient descent against a cluster-classification head.
Training and :func:`moe_forward` run the same layer, capacity included.
Three router kinds are supported:

* ``hash``   - stateless balanced hash of the token id; nothing routable
               is learned.
* ``switch`` - a dense learnable gating matrix, softmaxed directly.
* ``loc``    - fixed block-orthogonal gating over a learnable d x d
               pre-gating projection, so the balance and locality
               penalties can steer routing while the gating rows stay
               frozen.

The optimizer descends on aux + locality + per-token-mean cross-entropy.
The summed cross-entropy and its task-loss total are computed and logged
alongside; the mean is used for the descent direction because the summed
form scales with the token count and drowns the O(1) regularizers at any
realistic batch size.  The loss gradients come from :mod:`moelab.losses`
and are back-propagated by hand; :func:`moelab.losses.grad_check` checks
the whole chain on a probe batch at run start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commsim import ClusterTopology, ExpertPlacement, locality_fraction
from .losses import (
    LossConfig,
    aux_loss,
    aux_loss_grad_p,
    cross_entropy_grad,
    grad_check,
    locality_loss,
    locality_loss_grad,
    make_local_target,
    mean_cross_entropy,
)
from .router import (
    RoutingOutcome,
    TokenBatch,
    apply_capacity,
    build_block_gating,
    gate_scores,
    hash_route,
    top1,
)
from .special import erf


@dataclass
class ExpertParams:
    """One expert's feed-forward weights: d -> hidden -> d."""

    w_in: np.ndarray
    w_out: np.ndarray

    def __post_init__(self):
        self.w_in = np.asarray(self.w_in, dtype=float)
        self.w_out = np.asarray(self.w_out, dtype=float)
        if not (np.isfinite(self.w_in).all() and np.isfinite(self.w_out).all()):
            raise ValueError("expert weights contain non-finite entries")
        if self.w_in.shape[0] != self.w_out.shape[1] or self.w_in.shape[1] != self.w_out.shape[0]:
            raise ValueError(
                f"incompatible expert shapes {self.w_in.shape} / {self.w_out.shape}"
            )


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Clustered unit-norm token corpus: spherical cluster centers plus
    Gaussian jitter with standard deviation 1/concentration."""

    n_clusters: int
    dim: int
    tokens_per_cluster: int
    concentration: float
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.tokens_per_cluster < 1:
            raise ValueError(
                f"tokens_per_cluster must be >= 1, got {self.tokens_per_cluster}"
            )
        if not self.concentration > 0:
            raise ValueError(f"concentration must be > 0, got {self.concentration}")


@dataclass
class TrainRecord:
    """One training step's routing statistics and loss components."""

    epoch: int
    step: int
    router_kind: str
    counts: np.ndarray
    f: np.ndarray
    P: np.ndarray
    l_aux: float
    l_loc: float
    l_cross: float
    l_cross_mean: float
    l_task: float
    locality_fraction: float


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite; carries the
    diagnostic record for the offending step."""

    def __init__(self, message: str, record: TrainRecord):
        super().__init__(message)
        self.record = record


# Desk-scale calibration of the regularizer weights for the toy training
# regime.  The loss-module defaults (0.01) are tuned for full-scale language
# model training; against this small classification proxy they are two
# orders of magnitude too weak to steer routing within 50 epochs.
TRAIN_ALPHA_DEFAULT = 0.2
TRAIN_MU_DEFAULT = 0.1

# the loc pre-gating projection starts at LOC_GAIN * I: a useful softmax temperature
LOC_GAIN = 0.2
DEVICE_FLOPS = 1e12  # illustrative per-device flop/s behind modeled compute time


@dataclass
class TrainRun:
    """Everything a finished run exposes for reporting and comparison."""

    router_kind: str
    records: list[TrainRecord]
    final_outcome: RoutingOutcome
    source_device: np.ndarray
    n_experts: int
    probe_grad_rel_err: float
    modeled_compute_seconds: float
    params: dict


def gelu(x):
    """Exact GeLU x * Phi(x) with Phi the standard normal CDF (via erf)."""
    x = np.asarray(x, dtype=float)
    out = x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    if np.ndim(x) == 0:
        return float(out)
    return out


def gelu_grad(x):
    """d gelu / dx = Phi(x) + x * phi(x)."""
    x = np.asarray(x, dtype=float)
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def flops_per_served_token(dim: int, hidden: int) -> int:
    """Expert work per served token; independent of the expert count."""
    return 4 * dim * hidden + hidden + dim


def forward_flops(outcome: RoutingOutcome, dim: int, hidden: int) -> int:
    return int((~outcome.dropped).sum()) * flops_per_served_token(dim, hidden)


def init_experts(n_experts: int, dim: int, hidden: int, rng) -> list[ExpertParams]:
    return [
        ExpertParams(
            w_in=rng.standard_normal((hidden, dim)) / math.sqrt(dim),
            w_out=rng.standard_normal((dim, hidden)) / math.sqrt(hidden),
        )
        for _ in range(n_experts)
    ]


def _moe_apply(tokens, outcome: RoutingOutcome, experts):
    """The MoE layer; returns its output, the ungated expert output (0 where
    dropped) and per-expert caches (token indices, pre-activation, activation)."""
    raw = np.zeros_like(tokens)
    caches = []
    for e, p in enumerate(experts):
        idx = np.flatnonzero((outcome.expert_of_token == e) & ~outcome.dropped)
        if idx.size == 0:
            caches.append(None)
            continue
        z = tokens[idx] @ p.w_in.T
        a = gelu(z)
        raw[idx] = a @ p.w_out.T
        caches.append((idx, z, a))
    y = outcome.gate_value[:, None] * raw
    y[outcome.dropped] = tokens[outcome.dropped]
    return y, raw, caches


def moe_forward(batch: TokenBatch, outcome: RoutingOutcome, experts: list[ExpertParams]):
    """Mix expert outputs for a routed batch.

    ``outcome`` is the batch's routing (with any capacity already applied
    by :func:`apply_capacity`).  Served tokens produce
    gate * w_out . gelu(w_in . x); dropped tokens pass through unchanged.
    """
    if outcome.expert_of_token.shape != (batch.n_tokens,):
        raise ValueError("batch and routing outcome disagree on token count")
    for p in experts:
        if p.w_in.shape[1] != batch.dim:
            raise ValueError(
                f"expert expects dim {p.w_in.shape[1]}, batch has {batch.dim}"
            )
    return _moe_apply(batch.tokens, outcome, experts)[0]


def make_synthetic_corpus(cfg: SyntheticCorpusConfig) -> TokenBatch:
    """Unit-norm tokens around uniformly drawn spherical cluster centers."""
    rng = np.random.default_rng(cfg.seed)
    centers = rng.standard_normal((cfg.n_clusters, cfg.dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(cfg.n_clusters), cfg.tokens_per_cluster)
    noise_scale = 1.0 / cfg.concentration
    tokens = centers[labels] + noise_scale * rng.standard_normal((labels.size, cfg.dim))
    tokens /= np.linalg.norm(tokens, axis=1, keepdims=True)
    return TokenBatch(tokens=tokens, token_ids=np.arange(labels.size), labels=labels, unit_norm=True)


# --- training -------------------------------------------------------------


@dataclass
class _TrainSetup:
    """Immutable per-run constants shared by forward, backward and the
    finite-difference probe."""

    router_kind: str
    block_weights: np.ndarray | None
    alpha: float
    mu: float
    local_targets: np.ndarray  # (n_nodes, n_experts)
    n_nodes: int
    capacity: int | None


def _scores(state, setup: _TrainSetup, tokens):
    """Router scores of the learnable routers: dense inner products for
    switch, block gating over the pre-gating projection for loc."""
    proj = tokens @ state["gating"].T
    if setup.router_kind == "switch":
        return proj
    return gate_scores(proj, setup.block_weights)


def _train_forward(state, setup: _TrainSetup, tokens, labels, node_of_token):
    """Objective (aux + locality + mean cross-entropy) plus caches."""
    n = setup.local_targets.shape[1]
    if setup.router_kind == "hash":
        scores, outcome = None, state["hash"]  # routing is fixed
    else:
        scores = _scores(state, setup, tokens)
        outcome = top1(scores)
    if setup.capacity is not None:
        outcome = apply_capacity(outcome, setup.capacity)
    probs = outcome.probs
    l_aux = aux_loss(outcome.f, outcome.P, setup.alpha)

    # one KL term per source node holding tokens; empty nodes contribute nothing
    node_dc = np.zeros((setup.n_nodes, n))
    occupied = []
    for v in range(setup.n_nodes):
        sel = node_of_token == v
        if sel.any():
            node_dc[v] = probs[sel].mean(axis=0)
            occupied.append(v)
    l_loc = sum(
        locality_loss(node_dc[v], setup.local_targets[v], setup.mu) for v in occupied
    )

    y, expert_raw, caches = _moe_apply(tokens, outcome, state["experts"])
    logits = y @ state["head"].T
    l_cross_mean = mean_cross_entropy(logits, labels)

    objective = l_aux + l_loc + l_cross_mean
    cache = {
        "scores": scores,
        "outcome": outcome,
        "node_dc": node_dc,
        "occupied_nodes": occupied,
        "expert_raw": expert_raw,
        "expert_caches": caches,
        "y": y,
        "logits": logits,
        "l_aux": l_aux,
        "l_loc": l_loc,
        "l_cross_mean": l_cross_mean,
        "objective": objective,
    }
    return objective, cache


def _train_backward(state, setup: _TrainSetup, tokens, labels, node_of_token, cache):
    """Analytic gradients of the training objective for every tensor."""
    t = tokens.shape[0]
    outcome = cache["outcome"]
    probs = outcome.probs

    d_logits = cross_entropy_grad(cache["logits"], labels) / t
    grads = {"head": d_logits.T @ cache["y"]}
    d_y = d_logits @ state["head"]

    d_expert_raw = outcome.gate_value[:, None] * d_y
    d_gate = np.einsum("ij,ij->i", d_y, cache["expert_raw"])  # 0 where dropped

    g_in, g_out = [], []
    for e, p in enumerate(state["experts"]):
        c = cache["expert_caches"][e]
        if c is None:
            g_in.append(np.zeros_like(p.w_in))
            g_out.append(np.zeros_like(p.w_out))
            continue
        idx, z, a = c
        d_o = d_expert_raw[idx]
        g_out.append(d_o.T @ a)
        d_a = d_o @ p.w_out
        d_z = d_a * gelu_grad(z)
        g_in.append(d_z.T @ tokens[idx])
    grads["experts_in"] = g_in
    grads["experts_out"] = g_out

    if setup.router_kind == "hash":
        return grads

    d_probs = np.zeros_like(probs)
    d_probs[np.arange(t), outcome.expert_of_token] += d_gate
    # P and each node's d_c are token means, so every token gets 1/T of the
    # balance gradient and 1/T_v of its node's locality gradient
    d_probs += aux_loss_grad_p(outcome.f, setup.alpha) / t
    for v in cache["occupied_nodes"]:
        sel = node_of_token == v
        t_v = int(sel.sum())
        dkl = locality_loss_grad(cache["node_dc"][v], setup.local_targets[v], setup.mu)
        d_probs[sel] += dkl / t_v

    inner = np.einsum("ij,ij->i", d_probs, probs)
    d_scores = probs * (d_probs - inner[:, None])

    if setup.router_kind == "switch":
        grads["gating"] = d_scores.T @ tokens
    else:  # loc: scores = relu(proj @ W.T), proj = tokens @ M.T
        d_raw = d_scores * (cache["scores"] > 0)
        d_proj = d_raw @ setup.block_weights
        grads["gating"] = d_proj.T @ tokens
    return grads


def _probe_grad_check(state, setup, tokens, labels, node_of_token, rng,
                      coords_per_tensor: int = 24) -> float:
    """Sampled-coordinate finite-difference check of the analytic gradients:
    :func:`losses.grad_check` on a random sub-vector of each tensor."""
    _, cache = _train_forward(state, setup, tokens, labels, node_of_token)
    grads = _train_backward(state, setup, tokens, labels, node_of_token, cache)

    tensors = [(state["head"], grads["head"])]
    if "gating" in grads:
        tensors.append((state["gating"], grads["gating"]))
    for p, g_in, g_out in zip(state["experts"], grads["experts_in"], grads["experts_out"]):
        tensors += [(p.w_in, g_in), (p.w_out, g_out)]

    worst = 0.0
    for tensor, grad in tensors:
        flat = tensor.reshape(-1)
        picks = rng.choice(flat.size, size=min(coords_per_tensor, flat.size), replace=False)
        orig = flat[picks]

        def objective(values):
            flat[picks] = values
            return _train_forward(state, setup, tokens, labels, node_of_token)[0]

        report = grad_check(objective, lambda _: grad.reshape(-1)[picks], orig)
        flat[picks] = orig
        worst = max(worst, report.max_rel_err)
    return worst


def _select_probe(scores, n_probe: int = 4):
    """Pick probe tokens whose routing sits away from argmax ties and relu
    kinks so finite differences stay on one smooth piece."""
    part = np.sort(scores, axis=1)
    margin = part[:, -1] - part[:, -2]
    away_from_kink = np.abs(scores).min(axis=1) > 1e-3
    ok = np.flatnonzero((margin > 1e-3) & away_from_kink)
    if ok.size < n_probe:
        ok = np.flatnonzero(margin > 1e-3)
    if ok.size < n_probe:
        ok = np.arange(scores.shape[0])
    return ok[:n_probe]


def train(
    corpus: TokenBatch,
    router_kind: str,
    n_experts: int,
    placement: ExpertPlacement,
    topology: ClusterTopology,
    epochs: int = 50,
    lr: float = 1.0,
    loss_cfg: LossConfig | None = None,
    seed: int = 0,
    capacity: int | None = None,
    check_gradients: bool = True,
    grad_check_tol: float = 1e-4,
) -> TrainRun:
    """Train the toy MoE with the chosen router on a labeled corpus.

    Source devices are contiguous corpus shards (token t lives on device
    t * D // T), so nodes hold different cluster mixes the way
    data-parallel ranks hold different shards.  Expert and head
    initializations are drawn before any router-specific parameters,
    which makes paired runs with different routers share them exactly for
    a given seed.  Experts have hidden width ``4 * dim``.  With
    ``capacity`` set, each step serves at most that many tokens per
    expert (in batch order) and the rest pass through the layer unchanged.
    """
    if router_kind not in ("hash", "switch", "loc"):
        raise ValueError(f"unknown router kind {router_kind!r}")
    if corpus.labels is None:
        raise ValueError("training corpus must carry cluster labels")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if loss_cfg is None:
        loss_cfg = LossConfig(alpha=TRAIN_ALPHA_DEFAULT, mu=TRAIN_MU_DEFAULT)

    tokens = corpus.tokens
    labels = corpus.labels
    t, dim = tokens.shape
    hidden = 4 * dim
    n_classes = int(labels.max()) + 1

    # contiguous corpus shards per device, as data-parallel ranks would hold:
    # nodes then see different cluster mixes, which is what lets a shared
    # router trade locality at all (round-robin sharding would hand every
    # node the same token distribution and the node gradients would cancel)
    n_dev = topology.total_devices
    source_device = (np.arange(t, dtype=np.int64) * n_dev) // t
    node_of_token = topology.node_of(source_device)
    expert_nodes = placement.expert_nodes(topology)
    if expert_nodes.shape[0] != n_experts:
        raise ValueError(
            f"placement covers {expert_nodes.shape[0]} experts, expected {n_experts}"
        )
    local_targets = np.stack(
        [
            make_local_target(expert_nodes, v, loss_cfg.epsilon_smooth)
            for v in range(topology.n_nodes)
        ]
    )

    rng = np.random.default_rng(seed)
    state = {
        "experts": init_experts(n_experts, dim, hidden, rng),
        "head": rng.standard_normal((n_classes, dim)) / math.sqrt(dim),
    }
    block_w = None
    if router_kind == "switch":
        state["gating"] = rng.standard_normal((n_experts, dim)) / math.sqrt(dim)
    elif router_kind == "loc":
        block_w = build_block_gating(n_experts, dim)
        state["gating"] = LOC_GAIN * np.eye(dim)
    else:
        state["hash"] = hash_route(corpus.token_ids, n_experts)

    setup = _TrainSetup(
        router_kind=router_kind,
        block_weights=block_w,
        alpha=loss_cfg.alpha,
        mu=loss_cfg.mu,
        local_targets=local_targets,
        n_nodes=topology.n_nodes,
        capacity=capacity,
    )

    probe_err = 0.0
    if check_gradients:
        if router_kind == "hash":
            probe_idx = np.arange(min(4, t))
            probe_state = dict(state, hash=hash_route(corpus.token_ids[probe_idx], n_experts))
        else:
            probe_idx = _select_probe(_scores(state, setup, tokens))
            probe_state = state
        probe_err = _probe_grad_check(
            probe_state,
            setup,
            tokens[probe_idx],
            labels[probe_idx],
            node_of_token[probe_idx],
            np.random.default_rng(seed + 1),
        )
        if probe_err > grad_check_tol:
            raise AssertionError(
                f"gradient check failed for router {router_kind!r}: "
                f"max rel err {probe_err:.3e} > {grad_check_tol:.0e}"
            )

    records: list[TrainRecord] = []
    final_outcome: RoutingOutcome | None = None
    for epoch in range(epochs):
        objective, cache = _train_forward(state, setup, tokens, labels, node_of_token)
        l_cross_sum = cache["l_cross_mean"] * t

        outcome = cache["outcome"]
        record = TrainRecord(
            epoch=epoch,
            step=0,
            router_kind=router_kind,
            counts=outcome.assigned_counts(),
            f=outcome.f.copy(),
            P=outcome.P.copy(),
            l_aux=cache["l_aux"],
            l_loc=cache["l_loc"],
            l_cross=l_cross_sum,
            l_cross_mean=cache["l_cross_mean"],
            l_task=cache["l_aux"] + cache["l_loc"] + l_cross_sum,
            locality_fraction=locality_fraction(outcome, placement, source_device, topology),
        )
        if not math.isfinite(objective):
            raise TrainingDiverged(
                f"non-finite objective {objective} at epoch {epoch}", record
            )
        records.append(record)
        final_outcome = outcome

        if lr != 0.0:
            grads = _train_backward(state, setup, tokens, labels, node_of_token, cache)
            state["head"] -= lr * grads["head"]
            for e, p in enumerate(state["experts"]):
                p.w_in -= lr * grads["experts_in"][e]
                p.w_out -= lr * grads["experts_out"][e]
            if "gating" in grads:
                state["gating"] -= lr * grads["gating"]

    compute_s = forward_flops(final_outcome, dim, hidden) / (DEVICE_FLOPS * n_dev)
    params = {"head": state["head"], "experts": state["experts"]}
    if router_kind in ("switch", "loc"):
        params["gating"] = state["gating"]
    return TrainRun(
        router_kind=router_kind,
        records=records,
        final_outcome=final_outcome,
        source_device=source_device,
        n_experts=n_experts,
        probe_grad_rel_err=probe_err,
        modeled_compute_seconds=compute_s,
        params=params,
    )


def entropy(f) -> float:
    """Shannon entropy (nats) of an assignment-fraction vector."""
    f = np.asarray(f, dtype=float)
    pos = f[f > 0]
    return float(-np.sum(pos * np.log(pos)))


def assignment_report(records: list[TrainRecord]) -> list[list]:
    """Per-epoch expert counts plus summary metrics, as CSV-ready rows.

    Columns: epoch, step, router, one count per expert, entropy of f,
    fraction of experts never used up to that epoch, locality fraction.
    """
    if not records:
        raise ValueError("no records to report")
    n = records[0].counts.shape[0]
    header = (
        ["epoch", "step", "router"]
        + [f"count_{i}" for i in range(n)]
        + ["entropy", "never_used_fraction", "locality_fraction"]
    )
    rows: list[list] = [header]
    seen = np.zeros(n, dtype=bool)
    for rec in records:
        seen |= rec.counts > 0
        rows.append(
            [rec.epoch, rec.step, rec.router_kind]
            + [int(c) for c in rec.counts]
            + [entropy(rec.f), float((~seen).mean()), rec.locality_fraction]
        )
    return rows
