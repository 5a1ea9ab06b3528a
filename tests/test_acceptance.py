"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 3 checks the capacity-bound chain as it holds, on a grid of
d in {256..4096} and delta*sqrt(d) in {1, 1.5, 2, 3, 5} with n = 16:

(a) erfc-form > exp-form (the provable leg, exp(y^2) erfc(y) < 1);
(b) exact >= exp-form, the closed-form lower bound the chain exists for;
(c) erfc-form > exact: the erfc form is the large-d limit of the exact
    bound 1/(n p_delta), not a lower bound on it, and sits above it
    (relative gap 3e-4 to 7e-2 on this grid);
(d) that gap shrinks as O(1/d): gap(2d)/gap(d) lies in [0.45, 0.55] for
    every delta*sqrt(d).

See "Expected acceptance outcome" in the README.
"""

import math
import time

import numpy as np
import pytest

from moelab import defaults
from moelab.capacity import (
    CapacityTheoryInput,
    ec_min,
    mc_assignment_fractions,
    mc_p_delta,
    p_delta,
)
from moelab.cli import main as cli_main
from moelab.commsim import (
    alltoall_cost,
    build_volume_matrix,
    groupwise_alltoall_cost,
    locality_fraction,
)
from moelab.losses import (
    aux_loss,
    aux_loss_grad_p,
    cross_entropy,
    cross_entropy_grad,
    grad_check,
    locality_loss,
    locality_loss_grad,
)
from moelab.router import (
    TokenBatch,
    apply_capacity,
    build_block_gating,
    gate_scores,
    hash_route,
    route_top1,
    softmax,
    softmax_backward,
)
from moelab.toymoe import (
    compare_routers,
    entropy,
    flops_per_served_token,
    forward_flops,
    init_experts,
    make_synthetic_corpus,
    moe_forward,
)

from oracles import straight_line_moe_forward

SEED = defaults.DEFAULT_SEED


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def default_runs():
    """The paired hash / switch / loc runs on the default corpus."""
    placement = defaults.default_placement()
    topo = defaults.DEFAULT_TOPOLOGY
    t0 = time.monotonic()
    runs = compare_routers(make_synthetic_corpus(defaults.DEFAULT_CORPUS), defaults.DEFAULT_N_EXPERTS,
                           placement, topo, epochs=defaults.DEFAULT_EPOCHS, seed=SEED)
    return runs, time.monotonic() - t0, placement, topo


def test_criterion_1_cap_probability_and_monte_carlo():
    t0 = time.monotonic()
    ok = True
    details = []
    for d in (1024, 4096):
        value = p_delta(CapacityTheoryInput(1.0 / math.sqrt(d - 1.5), d, 1))
        details.append(f"p(d={d})={value:.4f}")
        ok &= 0.28 <= value <= 0.34
    grid = [
        (0.03125, 1024), (0.015625, 4096), (0.25, 16), (0.5, 8), (0.1, 64),
        (0.2, 32), (0.3, 12), (0.15, 48), (0.05, 128), (0.35, 10),
    ]
    worst_z = 0.0
    for i, (delta, dim) in enumerate(grid):
        analytic = p_delta(CapacityTheoryInput(delta, dim, 1))
        est, stderr = mc_p_delta(delta, dim, 1_000_000, seed=SEED + i)
        worst_z = max(worst_z, abs(est - analytic) / max(stderr, 1e-300))
    ok &= worst_z <= 3.0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(1, ok, ", ".join(details) + f"; 10 MC cases worst z={worst_z:.2f}; {elapsed:.1f}s")


def test_criterion_2_cap_area_identity_and_erf_limit():
    from moelab.capacity import cap_area_identity_check
    from moelab.special import reg_incomplete_beta

    worst = 0.0
    for dim in range(3, 21):
        for delta in np.arange(0.1, 0.95, 0.1):
            _, _, err = cap_area_identity_check(float(delta), dim)
            worst = max(worst, err)
    d = 4096
    beta_val = reg_incomplete_beta(1.0 / (d - 1.5), 0.5, (d - 1) / 2.0)
    erf_target = 0.6826894921370859
    gap = abs(beta_val - erf_target)
    ok = worst <= 1e-6 and gap <= 1e-3
    report(2, ok, f"identity max abs err {worst:.2e}; |I - erf(1/sqrt2)| = {gap:.2e}")


def test_criterion_3_capacity_bound_chain_as_printed():
    n = 16
    dims = (256, 512, 1024, 2048, 4096)
    mults = (1.0, 1.5, 2.0, 3.0, 5.0)
    exact_ok = erfc_exp_ok = erfc_above_ok = True
    min_margin = math.inf
    gap = {}
    for dim in dims:
        for mult in mults:
            res = ec_min(CapacityTheoryInput(mult / math.sqrt(dim), dim, n))
            exact_ok &= res.ec_min >= res.exp_bound
            erfc_exp_ok &= res.erfc_bound > res.exp_bound
            erfc_above_ok &= res.erfc_bound > res.ec_min
            min_margin = min(min_margin, res.ec_min / res.exp_bound)
            gap[dim, mult] = (res.erfc_bound - res.ec_min) / res.ec_min
    ratios = [
        gap[2 * dim, mult] / gap[dim, mult] for mult in mults for dim in dims[:-1]
    ]
    decay_ok = all(0.45 <= r <= 0.55 for r in ratios)
    ok = exact_ok and erfc_exp_ok and erfc_above_ok and decay_ok
    verdict = {True: "holds", False: "FAILS"}
    report(
        3,
        ok,
        f"{len(gap)} grid points: "
        f"exact >= exp-form {verdict[exact_ok]} (margin >= {min_margin:.2f}x); "
        f"erfc-form > exp-form {verdict[erfc_exp_ok]}; "
        f"erfc-form > exact {verdict[erfc_above_ok]} "
        f"(erfc form exceeds the exact bound by up to {max(gap.values()):.2e} rel); "
        f"gap(2d)/gap(d) in [{min(ratios):.3f}, {max(ratios):.3f}] "
        f"{verdict[decay_ok]} within [0.45, 0.55] (O(1/d) convergence)",
    )


def test_criterion_4_balanced_assignment():
    worst = 0.0
    for dim, n in ((64, 8), (128, 16)):
        f, sigma = mc_assignment_fractions(dim, n, 100_000, seed=SEED)
        worst = max(worst, float(np.abs(f - 1.0 / n).max() / sigma))
    ok = worst <= 3.0
    report(4, ok, f"10^5 sphere tokens, (64,8) and (128,16): worst |f - 1/n| = {worst:.2f} sigma")


def test_criterion_5_loss_contracts_and_gradients():
    ok = True
    # aux at uniform equals alpha to 1e-12
    for n in (2, 4, 16):
        u = np.full(n, 1.0 / n)
        ok &= abs(aux_loss(u, u, 0.01) - 0.01) <= 1e-12
    # KL of identical distributions is zero to 1e-12
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        d = rng.dirichlet(np.ones(int(rng.integers(2, 10))))
        ok &= abs(locality_loss(d, d, 1.0)) <= 1e-12
    # analytic vs central finite differences at 100 random points
    worst = 0.0
    for i in range(100):
        kind = i % 3
        if kind == 0:
            n = int(rng.integers(2, 9))
            f = rng.dirichlet(np.ones(n))
            alpha = float(rng.uniform(0.005, 0.1))
            err = grad_check(
                lambda p: aux_loss(f, p / p.sum(), alpha),
                lambda p: aux_loss_grad_p(f, alpha) / p.sum()
                - np.dot(aux_loss_grad_p(f, alpha), p) / p.sum() ** 2,
                rng.dirichlet(np.ones(n)),
            )
        elif kind == 1:
            n = int(rng.integers(2, 9))
            d_l = rng.dirichlet(np.ones(n)) + 1e-3
            d_l /= d_l.sum()
            mu = float(rng.uniform(0.005, 0.1))
            err = grad_check(
                lambda z: locality_loss(softmax(z)[0], d_l, mu),
                lambda z: softmax_backward(
                    softmax(z), locality_loss_grad(softmax(z)[0], d_l, mu)[None, :]
                ),
                rng.normal(0, 1, (1, n)),
            )
        else:
            t, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            targets = rng.integers(0, k, t)
            err = grad_check(
                lambda lg: cross_entropy(lg.reshape(t, k), targets),
                lambda lg: cross_entropy_grad(lg.reshape(t, k), targets).ravel(),
                rng.normal(0, 2, t * k),
            )
        worst = max(worst, err)
    ok &= worst <= 1e-4
    report(5, ok, f"loss identities exact; gradients at 100 points, max rel err {worst:.2e}")


def test_criterion_6_training_dynamics(default_runs):
    runs, elapsed, _, _ = default_runs
    n = defaults.DEFAULT_N_EXPERTS

    hash_spreads = [
        (r.counts.max() - r.counts.min()) / r.counts.mean() for r in runs["hash"].records
    ]
    a_ok = max(hash_spreads) < 0.1

    loc_last = runs["loc"].records[-1]
    switch_last = runs["switch"].records[-1]
    loc_entropy = entropy(loc_last.f)
    switch_entropy = entropy(switch_last.f)
    switch_unused = int((switch_last.counts == 0).sum())
    b_ok = switch_unused >= 1 or switch_entropy < loc_entropy
    c_ok = int((loc_last.counts == 0).sum()) == 0 and loc_entropy >= 0.9 * math.log(n)
    t_ok = elapsed < 120.0
    ok = a_ok and b_ok and c_ok and t_ok
    report(
        6,
        ok,
        f"hash spread max {max(hash_spreads):.3f}; switch H={switch_entropy:.3f} "
        f"unused={switch_unused}; loc H={loc_entropy:.3f} (floor {0.9*math.log(n):.3f}) "
        f"unused={int((loc_last.counts == 0).sum())}; {elapsed:.0f}s",
    )


def test_criterion_7_communication_model(default_runs):
    runs, _, placement, topo = default_runs
    rng = np.random.default_rng(SEED)
    d = topo.total_devices

    # (a) degenerate grouping is exactly the plain cost
    vol = rng.uniform(0, 4e6, (d, d))
    grouped, _ = groupwise_alltoall_cost(vol, topo, 1)
    a_ok = grouped == alltoall_cost(vol, topo)

    # (b) majority-inter-node volume benefits from tp=8 grouping
    heavy = np.full((d, d), 4e6)
    np.fill_diagonal(heavy, 0.0)
    g8, _ = groupwise_alltoall_cost(heavy, topo, 8)
    b_ok = g8 < alltoall_cost(heavy, topo)

    # (c) 100 single-token relocations remote -> local never increase cost at this seed; elsewhere
    # one can, since each ring round costs its slowest pair and the local pair it loads may be it
    experts = rng.integers(0, 16, 8000)
    src = rng.integers(0, d, 8000)
    from moelab.router import RoutingOutcome

    out = RoutingOutcome(expert_of_token=experts, probs=np.eye(16)[experts])
    volume = build_volume_matrix(out, placement, 4096, src, topo)
    devices = placement.devices()
    nodes = topo.node_of(devices)
    cost = alltoall_cost(volume, topo)
    c_ok = True
    moved = 0
    while moved < 100:
        t = int(rng.integers(0, 8000))
        src_node = int(topo.node_of(np.array([src[t]]))[0])
        cur_dev = devices[experts[t]]
        if int(topo.node_of(np.array([cur_dev]))[0]) == src_node:
            continue
        new_expert = int(rng.choice(np.flatnonzero(nodes == src_node)))
        volume[src[t], cur_dev] -= 4096
        volume[src[t], devices[new_expert]] += 4096
        experts[t] = new_expert
        new_cost = alltoall_cost(volume, topo)
        c_ok &= new_cost <= cost + 1e-18
        cost = new_cost
        moved += 1

    # (d) locality-trained run at least as local as the paired switch run
    loc_frac = locality_fraction(
        runs["loc"].final_outcome, placement, runs["loc"].source_device, topo
    )
    switch_frac = locality_fraction(
        runs["switch"].final_outcome, placement, runs["switch"].source_device, topo
    )
    d_ok = loc_frac >= switch_frac
    ok = a_ok and b_ok and c_ok and d_ok
    report(
        7,
        ok,
        f"tp1==plain {a_ok}; tp8<plain {b_ok}; 100 relocations monotone {c_ok}; "
        f"locality loc={loc_frac:.3f} >= switch={switch_frac:.3f} {d_ok}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    pairs = []
    for sub in ("a", "b"):
        base = tmp_path / sub
        base.mkdir()
        code = cli_main([
            "train-toy", "--router", "loc", "--epochs", "5",
            "--tokens-per-cluster", "64", "--seed", "13",
            "--out", str(base / "run.csv"),
        ])
        assert code == 0
        code = cli_main([
            "capacity", "--delta", "0.05", "--dim", "1024", "--experts", "16",
            "--mc-samples", "50000", "--seed", "13", "--out", str(base / "cap.json"),
        ])
        assert code == 0
        blob = b"".join(
            (base / name).read_bytes()
            for name in ("run.csv", "run.report.csv", "run.volumes.csv",
                         "run.csv.meta.json", "cap.json")
        )
        pairs.append(blob)
    ok = pairs[0] == pairs[1]
    report(8, ok, f"rerun artifacts byte-identical across {len(pairs)} runs: {ok}")


def test_criterion_9_forward_oracle_and_flop_invariance():
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for trial in range(3):
        d, h, n = 8, 12, 4
        w_in, w_out = init_experts(n, d, h, rng)
        batch = TokenBatch(tokens=rng.standard_normal((8, d)), token_ids=np.arange(8))
        w = build_block_gating(n, d)
        outcome = apply_capacity(route_top1(gate_scores(batch.tokens, w)), 3)
        y = moe_forward(batch, outcome, w_in, w_out)
        oracle = straight_line_moe_forward(
            batch.tokens, outcome.expert_of_token, outcome.gate_value,
            outcome.dropped, w_in, w_out,
        )
        worst = max(worst, float(np.abs(y - oracle).max()))
    per_token = set()
    for n in (2, 4, 8, 16):
        d, h = 16, 32
        outcome = hash_route(np.arange(64), n)
        per_token.add(forward_flops(outcome, d, h) // int((~outcome.dropped).sum()))
    ok = worst <= 1e-10 and len(per_token) == 1
    report(
        9,
        ok,
        f"straight-line oracle max abs diff {worst:.2e}; "
        f"flops/served token constant over n in (2,4,8,16): {per_token == {flops_per_served_token(16, 32)}}",
    )
