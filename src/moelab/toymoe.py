"""Desk-scale trainable mixture-of-experts layer over synthetic clustered
corpora.

The layer is a top-1 routed bank of two-layer GeLU feed-forward experts,
stored stacked as ``w_in`` (n, h, d) and ``w_out`` (n, d, h) (tokens over
an expert's capacity pass through unchanged), trained by plain full-batch
gradient descent against a cluster-classification head.
Training and :func:`moe_forward` run the same layer, capacity included.
Three router kinds are supported:

* ``hash``   - stateless balanced hash of the token id; nothing routable
               is learned.
* ``switch`` - a dense learnable gating matrix, softmaxed directly.
* ``loc``    - fixed block-orthogonal gating over a learnable d x d
               pre-gating projection, so the balance and locality
               penalties can steer routing while the gating rows stay
               frozen.

The optimizer descends on aux + locality + per-token-mean cross-entropy:
the summed form scales with the token count and drowns the O(1)
regularizers at any realistic batch size.  A run records the losses it
computed; the summed cross-entropy and task total derived from them are
left to the CLI, which writes them.  The loss gradients come from
:mod:`moelab.losses` and are back-propagated by hand;
:func:`moelab.losses.grad_check` checks the whole chain on a probe batch
at run start, rerunning per perturbed tensor only the forward stages
(routing, expert layer, head) it feeds.

Every :func:`train` call runs with OpenBLAS on one thread and gives the
caller's count back on return: the toy's matrices are too small for BLAS
threads to pay, and the pin makes a run's bits the same whatever thread
count the caller, the CLI included, has.  :func:`compare_routers` trains
the paired runs at once, in up to three processes (the caller and two
forked workers of about 58 MB peak RSS each), through
:func:`moelab._fork.fork_map`: the first failing run, in order, raises its
own exception, and a worker that dies raises ``BrokenProcessPool``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._fork import _one_blas_thread, _openblas_thread_fns, fork_map
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
    softmax_backward,
    top1,
)
from .special import erf


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
    """One epoch's routing statistics and loss components (the toy takes
    one full-batch step per epoch)."""

    epoch: int
    counts: np.ndarray
    f: np.ndarray
    P: np.ndarray
    l_aux: float
    l_loc: float
    l_cross_mean: float
    locality_fraction: float


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite; carries the
    diagnostic record for the offending epoch."""

    def __init__(self, message: str, record: TrainRecord):
        super().__init__(message)
        self.record = record

    def __reduce__(self):  # survives pickling, so a worker process can raise it
        return type(self), (self.args[0], self.record)


# Desk-scale calibration of the regularizer weights for the toy training
# regime.  The loss-module defaults (0.01) are tuned for full-scale language
# model training; against this small classification proxy they are two
# orders of magnitude too weak to steer routing within 50 epochs.
TRAIN_LOSSES = LossConfig(alpha=0.2, mu=0.1)

# The paired comparison's loss policy, in run order.  perfbench/workloads.py::probe_metrics keeps
# a copy, as the benchmark changes only on its own; tests/test_traced_names.py pins the two together.
COMPARE_LOSSES = {"hash": LossConfig(0.0, 0.0), "switch": LossConfig(0.0, 0.0), "loc": TRAIN_LOSSES}

# the loc pre-gating projection starts at LOC_GAIN * I: a useful softmax temperature
LOC_GAIN = 0.2


@dataclass
class TrainRun:
    """Everything a finished run exposes for reporting and comparison."""

    router_kind: str
    records: list[TrainRecord]  # one per epoch, so never empty (epochs >= 1)
    final_outcome: RoutingOutcome
    source_device: np.ndarray
    probe_grad_rel_err: float
    params: dict  # the trained tensors: head, w_in, w_out and, for switch and loc, gating


_PDF_ZERO = 40.0  # exp(-x*x/2) underflows to 0.0 beyond |x| = 38.6


def _normal_cdf(z):
    """Phi(z) = 0.5 * (1 + erf(z / sqrt 2)), the standard normal CDF,
    updated in place in erf's fresh result."""
    c = erf(z / math.sqrt(2.0))
    c += 1.0
    c *= 0.5
    return c


def gelu(x, cdf=None):
    """Exact GeLU x * Phi(x) with Phi the standard normal CDF (via erf).

    A caller already holding ``cdf`` = Phi(x) passes it, and no erf is
    evaluated; the expert layer does this to reuse one Phi per step."""
    x = np.asarray(x, dtype=float)
    # Phi is exactly 0 below -_PDF_ZERO, so lifting x to it there keeps every
    # finite product's bits and gives gelu(-inf) its limit -0.0, not -inf * 0
    out = np.maximum(x, -_PDF_ZERO)
    out *= _normal_cdf(x) if cdf is None else cdf
    if np.ndim(x) == 0:
        return float(out)
    return out


def gelu_grad(x, cdf=None):
    """d gelu / dx = Phi(x) + x * phi(x); ``cdf`` as for :func:`gelu`."""
    x = np.asarray(x, dtype=float)
    if cdf is None:
        cdf = _normal_cdf(x)
    # past _PDF_ZERO the pdf is 0.0 and x * pdf is +-0, so clipping x there
    # changes no finite result and keeps x*x from overflowing (and inf * 0 out)
    x = np.clip(x, -_PDF_ZERO, _PDF_ZERO)
    # cdf + x * exp(-0.5 * x * x) / sqrt(2 pi), temporaries updated in place
    out = -0.5 * x
    out *= x
    out = np.exp(out)
    out /= math.sqrt(2.0 * math.pi)
    out *= x
    out += cdf
    return out


def init_experts(n_experts: int, dim: int, hidden: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Stacked expert weights ``w_in`` (n, hidden, dim) and ``w_out``
    (n, dim, hidden), drawn expert by expert: w_in[e], then w_out[e]."""
    w_in = np.empty((n_experts, hidden, dim))
    w_out = np.empty((n_experts, dim, hidden))
    for e in range(n_experts):
        w_in[e] = rng.standard_normal((hidden, dim)) / math.sqrt(dim)
        w_out[e] = rng.standard_normal((dim, hidden)) / math.sqrt(hidden)
    return w_in, w_out


def _expert_ffn(x, w_in, w_out):
    """One expert on its served tokens ``x``: the pre-activation z, Phi(z)
    and the ungated output gelu(z) @ w_out.T."""
    z = x @ w_in.T
    cdf = _normal_cdf(z)
    return z, cdf, gelu(z, cdf) @ w_out.T


def _mix(tokens, outcome: RoutingOutcome, raw):
    """The layer output: gate * expert output, or the token where dropped."""
    y = outcome.gate_value[:, None] * raw
    y[outcome.dropped] = tokens[outcome.dropped]
    return y


def _moe_apply(tokens, outcome: RoutingOutcome, w_in, w_out):
    """The MoE layer; returns its output, the ungated expert output (0 where
    dropped) and per-expert caches ``(idx, z, cdf)``: the served token
    indices, the pre-activation z and Phi(z), from which the backward pass
    rebuilds the activation and GeLU's derivative without evaluating erf
    again (None for an expert serving no token)."""
    n = len(w_in)
    # one stable sort groups the served tokens by expert, each group in
    # batch order; dropped tokens are keyed past the last expert
    served = np.where(outcome.dropped, n, outcome.expert_of_token)
    order = np.argsort(served, kind="stable")
    counts = np.bincount(served, minlength=n + 1)[:n]
    ends = np.cumsum(counts)
    raw = np.zeros_like(tokens)
    caches = [None] * n
    for e in np.flatnonzero(counts):
        idx = order[ends[e] - counts[e] : ends[e]]
        z, cdf, raw[idx] = _expert_ffn(tokens[idx], w_in[e], w_out[e])
        caches[e] = (idx, z, cdf)
    return _mix(tokens, outcome, raw), raw, caches


def moe_forward(batch: TokenBatch, outcome: RoutingOutcome, w_in, w_out):
    """Mix expert outputs for a routed batch.

    ``outcome`` is the batch's routing (with any capacity already applied
    by :func:`apply_capacity`) over the n experts of the stacked weights
    ``w_in`` (n, h, d) and ``w_out`` (n, d, h).  Served tokens produce
    gate * w_out[e] . gelu(w_in[e] . x); dropped tokens pass through
    unchanged.
    """
    w_in = np.asarray(w_in, dtype=float)
    w_out = np.asarray(w_out, dtype=float)
    if w_in.ndim != 3 or w_out.shape != (w_in.shape[0], w_in.shape[2], w_in.shape[1]):
        raise ValueError(f"incompatible expert shapes {w_in.shape} / {w_out.shape}")
    if w_in.shape[2] != batch.dim:
        raise ValueError(f"experts expect dim {w_in.shape[2]}, batch has {batch.dim}")
    if not (np.isfinite(w_in).all() and np.isfinite(w_out).all()):
        raise ValueError("expert weights contain non-finite entries")
    if outcome.expert_of_token.shape != (batch.n_tokens,):
        raise ValueError("batch and routing outcome disagree on token count")
    if outcome.n_experts != w_in.shape[0]:
        raise ValueError(f"routing covers {outcome.n_experts} experts, weights hold {w_in.shape[0]}")
    return _moe_apply(batch.tokens, outcome, w_in, w_out)[0]


def make_synthetic_corpus(cfg: SyntheticCorpusConfig) -> TokenBatch:
    """Unit-norm tokens around uniformly drawn spherical cluster centers; a
    concentration so small that the tokens' norms overflow raises ValueError."""
    rng = np.random.default_rng(cfg.seed)
    centers = rng.standard_normal((cfg.n_clusters, cfg.dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    labels = np.repeat(np.arange(cfg.n_clusters), cfg.tokens_per_cluster)
    noise_scale = 1.0 / cfg.concentration
    tokens = centers[labels] + noise_scale * rng.standard_normal((labels.size, cfg.dim))
    try:
        with np.errstate(over="raise", invalid="raise"):
            tokens /= np.linalg.norm(tokens, axis=1, keepdims=True)
    except FloatingPointError:
        raise ValueError(f"concentration {cfg.concentration} is too small: "
                         "the jittered tokens' norms overflow") from None
    return TokenBatch(tokens=tokens, token_ids=np.arange(labels.size), labels=labels)


# --- training -------------------------------------------------------------


@dataclass(frozen=True)
class _TrainSetup:
    """What one training objective reads besides the trained tensors: the
    router, the losses and the batch, shared by forward, backward and the
    finite-difference probe."""

    router_kind: str
    block_weights: np.ndarray | None
    capacity: int | None
    losses: LossConfig
    tokens: np.ndarray
    labels: np.ndarray
    # (token rows, local target) of each source node holding tokens, nodes ascending
    node_rows: tuple[tuple[np.ndarray, np.ndarray], ...]
    hash_outcome: RoutingOutcome | None  # the hash router's fixed routing of the batch


def _scores(state, setup: _TrainSetup):
    """Router scores of the learnable routers: dense inner products for
    switch, block gating over the pre-gating projection for loc."""
    proj = setup.tokens @ state["gating"].T
    if setup.router_kind == "switch":
        return proj
    return gate_scores(proj, setup.block_weights)


def _route(state, setup: _TrainSetup) -> dict:
    """Routing stage: the top-1 outcome with any capacity applied, the
    balance loss and the per-node locality loss.  It reads only the gating
    tensor (or the fixed hash outcome)."""
    if setup.router_kind == "hash":
        scores, outcome = None, setup.hash_outcome
    else:
        scores = _scores(state, setup)
        outcome = top1(scores)
    if setup.capacity is not None:
        outcome = apply_capacity(outcome, setup.capacity)
    l_aux = aux_loss(outcome.f, outcome.P, setup.losses.alpha)
    # one KL term per source node holding tokens
    node_dc = [outcome.probs[rows].mean(axis=0) for rows, _ in setup.node_rows]
    l_loc = sum(locality_loss(dc, target, setup.losses.mu)
                for dc, (_, target) in zip(node_dc, setup.node_rows))
    return dict(scores=scores, outcome=outcome, node_dc=node_dc, l_aux=l_aux, l_loc=l_loc)


def _head(state, setup: _TrainSetup, y, cache):
    """Head stage: logits, mean cross-entropy and the objective aux + loc +
    mean CE, with the routing stage's losses from ``cache``."""
    logits = y @ state["head"].T
    l_cross_mean = mean_cross_entropy(logits, setup.labels)
    return logits, l_cross_mean, cache["l_aux"] + cache["l_loc"] + l_cross_mean


def _train_forward(state, setup: _TrainSetup):
    """Objective plus caches from the routing, expert-layer and head stages."""
    cache = _route(state, setup)
    y, expert_raw, caches = _moe_apply(setup.tokens, cache["outcome"], state["w_in"], state["w_out"])
    logits, l_cross_mean, objective = _head(state, setup, y, cache)
    cache.update(expert_raw=expert_raw, expert_caches=caches, y=y, logits=logits,
                 l_cross_mean=l_cross_mean, objective=objective)
    return objective, cache


def _train_backward(state, setup: _TrainSetup, cache):
    """Analytic gradients of the training objective, keyed like ``state``;
    an expert serving no token gets zero rows."""
    tokens = setup.tokens
    t = tokens.shape[0]
    outcome = cache["outcome"]
    probs = outcome.probs

    d_logits = cross_entropy_grad(cache["logits"], setup.labels) / t
    grads = {"head": d_logits.T @ cache["y"]}
    d_y = d_logits @ state["head"]

    d_expert_raw = outcome.gate_value[:, None] * d_y
    d_gate = np.einsum("ij,ij->i", d_y, cache["expert_raw"])  # 0 where dropped

    g_in = grads["w_in"] = np.zeros_like(state["w_in"])
    g_out = grads["w_out"] = np.zeros_like(state["w_out"])
    for e, c in enumerate(cache["expert_caches"]):
        if c is None:
            continue
        idx, z, cdf = c
        d_o = d_expert_raw[idx]
        g_out[e] = d_o.T @ gelu(z, cdf)
        d_z = (d_o @ state["w_out"][e]) * gelu_grad(z, cdf)
        g_in[e] = d_z.T @ tokens[idx]

    if setup.router_kind == "hash":
        return grads

    d_probs = np.zeros_like(probs)
    d_probs[np.arange(t), outcome.expert_of_token] += d_gate
    # P and each node's d_c are token means, so every token gets 1/T of the
    # balance gradient and 1/T_v of its node's locality gradient
    d_probs += aux_loss_grad_p(outcome.f, setup.losses.alpha) / t
    for (rows, target), dc in zip(setup.node_rows, cache["node_dc"]):
        d_probs[rows] += locality_loss_grad(dc, target, setup.losses.mu) / len(rows)

    d_scores = softmax_backward(probs, d_probs)

    if setup.router_kind == "switch":
        grads["gating"] = d_scores.T @ tokens
    else:  # loc: scores = relu(proj @ W.T), proj = tokens @ M.T
        d_raw = d_scores * (cache["scores"] > 0)
        d_proj = d_raw @ setup.block_weights
        grads["gating"] = d_proj.T @ tokens
    return grads


_PROBE_TOKENS = 4  # tokens in the start-of-run probe batch
_PROBE_COORDS = 24  # coordinates checked per tensor


def _probe_tensors(state, setup: _TrainSetup):
    """``(tensor, grad, objective)`` for every tensor the probe checks.
    ``objective()`` gives the training objective at the tensor's current
    (perturbed) values, bitwise what :func:`_train_forward` gives, by
    rerunning only the stages the tensor feeds."""
    _, cache = _train_forward(state, setup)
    grads = _train_backward(state, setup, cache)

    def head(y=cache["y"]):
        return _head(state, setup, y, cache)[2]

    def expert(e, idx):
        raw = cache["expert_raw"].copy()
        raw[idx] = _expert_ffn(setup.tokens[idx], state["w_in"][e], state["w_out"][e])[2]
        return head(_mix(setup.tokens, cache["outcome"], raw))

    out = [(state["head"], grads["head"], head)]
    if "gating" in state:
        out.append((state["gating"], grads["gating"], lambda: _train_forward(state, setup)[0]))
    for e, c in enumerate(cache["expert_caches"]):
        # an expert serving no probe token changes no row of the layer output
        fn = (lambda: cache["objective"]) if c is None else (lambda e=e, idx=c[0]: expert(e, idx))
        out += [(state[name][e], grads[name][e], fn) for name in ("w_in", "w_out")]
    return out


def _probe_grad_check(state, setup: _TrainSetup, rng) -> float:
    """Sampled-coordinate finite-difference check of the analytic gradients:
    the worst :func:`losses.grad_check` error over a random sub-vector of
    each tensor, NaN if any is NaN."""
    errs = []
    for tensor, grad, rerun in _probe_tensors(state, setup):
        flat = tensor.reshape(-1)
        picks = rng.choice(flat.size, size=min(_PROBE_COORDS, flat.size), replace=False)
        orig = flat[picks]

        def objective(values):
            flat[picks] = values
            return rerun()

        errs.append(grad_check(objective, lambda _: grad.reshape(-1)[picks], orig))
        flat[picks] = orig
    return float(np.max(errs))  # max() would drop a NaN, as every comparison with NaN is false


def _select_probe(scores):
    """Pick probe tokens whose routing sits away from argmax ties and relu
    kinks so finite differences stay on one smooth piece."""
    part = np.sort(scores, axis=1)
    # one expert has no runner-up, so no argmax tie
    margin = part[:, -1] - part[:, -2] if part.shape[1] > 1 else np.full(len(part), np.inf)
    away_from_kink = np.abs(scores).min(axis=1) > 1e-3
    ok = np.flatnonzero((margin > 1e-3) & away_from_kink)
    if ok.size < _PROBE_TOKENS:
        ok = np.flatnonzero(margin > 1e-3)
    if ok.size < _PROBE_TOKENS:
        ok = np.arange(scores.shape[0])
    return ok[:_PROBE_TOKENS]


@_one_blas_thread()
def train(
    corpus: TokenBatch,
    router_kind: str,
    n_experts: int,
    placement: ExpertPlacement,
    topology: ClusterTopology,
    epochs: int = 50,
    lr: float = 1.0,
    loss_cfg: LossConfig = TRAIN_LOSSES,
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
    A start-of-run probe error over ``grad_check_tol`` raises
    AssertionError, and a NaN one RuntimeError.  Every call trains with
    OpenBLAS on one thread and gives the caller's count back, so its bits
    do not depend on the BLAS thread count.
    """
    if router_kind not in ("hash", "switch", "loc"):
        raise ValueError(f"unknown router kind {router_kind!r}")
    if corpus.labels is None:
        raise ValueError("training corpus must carry cluster labels")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")

    t, dim = corpus.tokens.shape
    n_classes = int(corpus.labels.max()) + 1

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

    rng = np.random.default_rng(seed)
    w_in, w_out = init_experts(n_experts, dim, 4 * dim, rng)
    state = {
        "w_in": w_in,
        "w_out": w_out,
        "head": rng.standard_normal((n_classes, dim)) / math.sqrt(dim),
    }
    block_w = None
    if router_kind == "switch":
        state["gating"] = rng.standard_normal((n_experts, dim)) / math.sqrt(dim)
    elif router_kind == "loc":
        block_w = build_block_gating(n_experts, dim)
        state["gating"] = LOC_GAIN * np.eye(dim)

    def setup_over(idx) -> _TrainSetup:
        """The objective over the corpus tokens ``idx`` selects (a slice
        selects a view, not a copy)."""
        nodes = node_of_token[idx]
        return _TrainSetup(
            router_kind=router_kind,
            block_weights=block_w,
            capacity=capacity,
            losses=loss_cfg,
            tokens=corpus.tokens[idx],
            labels=corpus.labels[idx],
            node_rows=tuple((np.flatnonzero(nodes == v), make_local_target(expert_nodes, v))
                            for v in np.unique(nodes)),
            hash_outcome=hash_route(corpus.token_ids[idx], n_experts) if router_kind == "hash" else None,
        )

    setup = setup_over(slice(None))
    probe_err = 0.0
    if check_gradients:
        probe_idx = (np.arange(min(_PROBE_TOKENS, t)) if router_kind == "hash"
                     else _select_probe(_scores(state, setup)))
        probe_err = _probe_grad_check(state, setup_over(probe_idx), np.random.default_rng(seed + 1))
        if not math.isfinite(probe_err):
            raise RuntimeError(f"gradient check failed for router {router_kind!r}: max rel err {probe_err}")
        if probe_err > grad_check_tol:
            raise AssertionError(
                f"gradient check failed for router {router_kind!r}: "
                f"max rel err {probe_err:.3e} > {grad_check_tol:.0e}"
            )

    records: list[TrainRecord] = []
    final_outcome: RoutingOutcome | None = None
    for epoch in range(epochs):
        objective, cache = _train_forward(state, setup)
        outcome = cache["outcome"]
        record = TrainRecord(
            epoch=epoch,
            counts=outcome.assigned_counts(),
            f=outcome.f.copy(),
            P=outcome.P.copy(),
            l_aux=cache["l_aux"],
            l_loc=cache["l_loc"],
            l_cross_mean=cache["l_cross_mean"],
            locality_fraction=locality_fraction(outcome, placement, source_device, topology),
        )
        if not math.isfinite(objective):
            raise TrainingDiverged(
                f"non-finite objective {objective} at epoch {epoch}", record
            )
        records.append(record)
        final_outcome = outcome

        if lr != 0.0:
            grads = _train_backward(state, setup, cache)
            for name, g in grads.items():
                state[name] -= lr * g
        del cache  # free this epoch's z/Phi cache before the next forward

    return TrainRun(
        router_kind=router_kind,
        records=records,
        final_outcome=final_outcome,
        source_device=source_device,
        probe_grad_rel_err=probe_err,
        params=state,
    )


def _train_paired(kind, corpus, placement, topology, epochs, seed) -> TrainRun:
    return train(corpus, kind, placement.n_experts, placement, topology,
                 epochs=epochs, loss_cfg=COMPARE_LOSSES[kind], seed=seed)


def compare_routers(corpus: TokenBatch, placement: ExpertPlacement, topology: ClusterTopology,
                    *, epochs: int, seed: int) -> dict[str, TrainRun]:
    """The paired runs: each router of :data:`COMPARE_LOSSES`, in order,
    trained with its losses over the placement's experts.

    The runs are independent, so they train at once through
    :func:`moelab._fork.fork_map`: the first router in this process and
    each other router in its own forked worker, three processes in all (a
    worker peaks at about 58 MB RSS on the default corpus), each on the one
    OpenBLAS thread :func:`train` holds.  Where OpenBLAS cannot be pinned
    (three processes of several BLAS threads each would crowd the cores) or
    there is no ``fork`` start method, the runs train here, in order.  The
    first router, in order, whose run fails raises its own exception; a
    worker that dies raises ``BrokenProcessPool`` (a RuntimeError).  No
    worker outlives the call.
    """
    run = functools.partial(_train_paired, corpus=corpus, placement=placement, topology=topology,
                            epochs=epochs, seed=seed)
    processes = 1 if _openblas_thread_fns() is None else len(COMPARE_LOSSES)
    return dict(zip(COMPARE_LOSSES, fork_map(run, COMPARE_LOSSES, processes)))


def entropy(f) -> float:
    """Shannon entropy (nats) of an assignment-fraction vector."""
    f = np.asarray(f, dtype=float)
    pos = f[f > 0]
    return float(-np.sum(pos * np.log(pos)))

