import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moelab
from moelab.capacity import (
    CapacityTheoryInput,
    CapacityTheoryResult,
    SphereSampleConfig,
    cap_area_identity_check,
    capacity_curve,
    cosine_histograms,
    ec_min,
    empirical_capacity,
    mc_assignment_fractions,
    mc_p_delta,
    p_delta,
    sample_unit_sphere,
)
from moelab.router import build_block_gating, gate_scores, route_top1
from moelab.toymoe import SyntheticCorpusConfig, make_synthetic_corpus

from oracles import reg_beta_quad

SRC = str(Path(moelab.__file__).resolve().parents[1])


def theory(delta, dim, n=16):
    return CapacityTheoryInput(delta=delta, dim=dim, n_experts=n)


class TestPDelta:
    def test_boundaries(self):
        assert p_delta(theory(0.0, 64)) == 1.0
        assert p_delta(theory(1.0, 64)) == 0.0

    def test_large_dim_value_near_point_three(self):
        for d in (1024, 4096):
            delta = 1.0 / math.sqrt(d - 1.5)
            assert 0.28 <= p_delta(theory(delta, d)) <= 0.34

    def test_against_quadrature_oracle(self):
        value = p_delta(theory(0.25, 16))
        expected = 1.0 - reg_beta_quad(0.25**2, 0.5, 7.5)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_monotone_decreasing_in_delta_and_dim(self):
        deltas = np.linspace(0.05, 0.95, 10)
        for d in (8, 16, 64, 256):
            vals = [p_delta(theory(float(x), d)) for x in deltas]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for delta in (0.1, 0.3, 0.6):
            vals = [p_delta(theory(delta, d)) for d in (8, 16, 32, 64, 128)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            theory(-0.1, 16)
        with pytest.raises(ValueError):
            theory(1.2, 16)
        with pytest.raises(ValueError):
            CapacityTheoryInput(delta=0.5, dim=1, n_experts=4)


class TestMonteCarloPDelta:
    def test_zero_threshold_is_exactly_one(self):
        est, stderr = mc_p_delta(0.0, 64, 1000, seed=0)
        assert est == 1.0 and stderr == 0.0

    def test_agreement_with_analytic(self):
        # analytic formula as the oracle, 3 binomial sigma
        for i, (delta, dim) in enumerate([(0.5, 8), (0.25, 16), (0.1, 64)]):
            analytic = p_delta(theory(delta, dim))
            est, stderr = mc_p_delta(delta, dim, 200_000, seed=20 + i)
            assert abs(est - analytic) <= 3 * stderr

    def test_seed_determinism(self):
        a = mc_p_delta(0.2, 32, 5000, seed=4)
        b = mc_p_delta(0.2, 32, 5000, seed=4)
        assert a == b


class TestEcMin:
    def test_zero_delta_gives_one_over_n(self):
        res = ec_min(theory(0.0, 128, n=8))
        assert res.ec_min == pytest.approx(1 / 8, abs=1e-15)
        assert res.degenerate  # 8 * p_delta = 8 > 1
        assert not res.unbounded

    def test_paper_scale_point_and_bound_order(self):
        # erfc form must exceed the exponential form
        res = ec_min(theory(0.03, 4096, n=16))
        assert isinstance(res, CapacityTheoryResult)
        assert res.erfc_bound > res.exp_bound
        assert res.ec_min > 1.0
        assert not res.degenerate

    def test_exact_vs_erfc_gap_reported(self):
        # the erfc approximation sits within a few percent of the exact
        # bound in the moderate regime
        res = ec_min(theory(0.1, 1024, n=8))
        gap = abs(res.erfc_bound - res.ec_min) / res.ec_min
        assert gap < 0.05

    def test_unbounded_flag_instead_of_crash(self):
        res = ec_min(theory(1.0, 64, n=4))
        assert res.unbounded and res.ec_min == math.inf

    def test_broken_invariant_raises_even_under_optimize(self):
        # with erfc replaced by 1 the erfc form drops below the exp form;
        # the check must survive python -O, which strips asserts
        code = (
            "import moelab.capacity as c; c.erfc = lambda y: 1.0; "
            "c.ec_min(c.CapacityTheoryInput(0.1, 512, 16))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "RuntimeError: erfc-form bound" in proc.stderr

    def test_exp_bound_is_lower_bound_of_exact(self):
        # ec_min >= exp_bound whenever the chain applies
        for dim in (256, 1024, 4096):
            for mult in (1.0, 2.0, 4.0):
                res = ec_min(theory(mult / math.sqrt(dim), dim, n=16))
                if math.isfinite(res.ec_min):
                    assert res.ec_min >= res.exp_bound


class TestEmpiricalCapacity:
    def test_reference_configuration(self):
        assert empirical_capacity(32, 1.0, 16, 16) == 1

    def test_direct_evaluation(self):
        assert empirical_capacity(256, 1.25, 16, 16) == 2

    def test_scaling_linearity_before_ceiling(self):
        base = 256 * 1.25 / (16 * 16)
        for k in (2.0, 3.0, 7.5):
            assert empirical_capacity(256, 1.25 * k, 16, 16) == math.ceil(base * k)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            empirical_capacity(0, 1.0, 16, 16)
        with pytest.raises(ValueError):
            empirical_capacity(32, 1.0, 16, 0)


class TestCapacityCurve:
    def test_monotone_non_decreasing(self):
        curve = capacity_curve(512, 16, np.linspace(0.01, 0.5, 50))
        values = [res.ec_min for _, res in curve]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_small_delta_limit(self):
        curve = capacity_curve(512, 16, [1e-9, 1e-6])
        assert curve[0][1].ec_min == pytest.approx(1 / 16, rel=1e-6)

    def test_spot_value_vs_quadrature(self):
        (delta, res), = capacity_curve(512, 16, [0.1])
        p = 1.0 - reg_beta_quad(0.01, 0.5, 255.5)
        assert res.ec_min == pytest.approx(1.0 / (16 * p), rel=1e-9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            capacity_curve(64, 8, [0.5, 0.4])
        with pytest.raises(ValueError):
            capacity_curve(64, 8, [0.0, 0.5])


class TestSphereSampling:
    def test_unit_norms(self):
        batch = sample_unit_sphere(SphereSampleConfig(dim=16, n_samples=500, seed=0))
        assert np.abs(np.linalg.norm(batch.tokens, axis=1) - 1.0).max() <= 1e-9
        assert batch.unit_norm

    def test_mean_vector_clt(self):
        # each coordinate mean within 3 sigma of zero, sigma = 1/sqrt(d*N)
        d, n = 8, 100_000
        batch = sample_unit_sphere(SphereSampleConfig(dim=d, n_samples=n, seed=2))
        sigma = 1.0 / math.sqrt(d * n)
        assert np.abs(batch.tokens.mean(axis=0)).max() <= 3 * sigma

    def test_bit_identical_across_runs(self):
        a = sample_unit_sphere(SphereSampleConfig(dim=12, n_samples=100, seed=9))
        b = sample_unit_sphere(SphereSampleConfig(dim=12, n_samples=100, seed=9))
        assert np.array_equal(a.tokens, b.tokens)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            SphereSampleConfig(dim=1, n_samples=10)


class TestBalancedAssignment:
    def test_uniform_fractions_small(self):
        f, sigma = mc_assignment_fractions(64, 8, 20_000, seed=2)
        assert np.abs(f - 1 / 8).max() <= 3 * sigma

    def test_matches_scored_router_when_any_score_positive(self):
        n, d, t = 8, 64, 5000
        w = build_block_gating(n, d)
        batch = sample_unit_sphere(SphereSampleConfig(dim=d, n_samples=t, seed=3))
        raw = batch.tokens @ w.T
        scored = route_top1(gate_scores(batch.tokens, w))
        keep = raw.max(axis=1) > 0
        assert np.array_equal(
            scored.expert_of_token[keep], np.argmax(raw, axis=1)[keep]
        )


class TestCapAreaIdentity:
    def test_three_dim_closed_form(self):
        # in three dimensions the two-cap fraction is exactly 1 - delta
        lhs, rhs, err = cap_area_identity_check(0.5, 3)
        assert lhs == pytest.approx(0.5, abs=1e-9)
        assert rhs == pytest.approx(0.5, abs=1e-12)
        assert err <= 1e-6

    def test_boundary_values(self):
        lhs, rhs, _ = cap_area_identity_check(0.0, 8)
        assert lhs == pytest.approx(1.0, abs=1e-9)
        assert rhs == 1.0
        lhs, rhs, _ = cap_area_identity_check(1.0, 8)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == 0.0

    def test_grid_within_tolerance(self):
        for dim in range(3, 21):
            for delta in np.arange(0.1, 0.95, 0.1):
                _, _, err = cap_area_identity_check(float(delta), dim)
                assert err <= 1e-6

    def test_wide_dim_window(self):
        for dim in (32, 48, 64):
            _, _, err = cap_area_identity_check(0.3, dim)
            assert err <= 1e-6


class TestCosineHistograms:
    def test_tokens_equal_to_gating_rows_concentrate_at_one(self):
        w = build_block_gating(4, 8)
        from moelab.router import TokenBatch

        batch = TokenBatch(tokens=np.tile(w, (3, 1)), token_ids=np.arange(12))
        outcome = route_top1(gate_scores(batch.tokens, w))
        hist = cosine_histograms(batch, outcome, w)
        for i in range(4):
            counts = hist.pair_counts[i, i]
            assert counts.sum() > 0
            assert counts[-1] == counts.sum()  # all mass in the top bin at 1.0

    def test_clustered_corpus_diagonal_beats_off_diagonal(self):
        corpus = make_synthetic_corpus(
            SyntheticCorpusConfig(n_clusters=4, dim=64, tokens_per_cluster=200,
                                  concentration=10.0, seed=5)
        )
        w = build_block_gating(8, 64)
        outcome = route_top1(gate_scores(corpus.tokens, w))
        hist = cosine_histograms(corpus, outcome, w)
        mids = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])

        def mean_of(counts):
            return float((counts * mids).sum() / counts.sum())

        # direct oracle: mean cosine within vs across routed groups
        x = corpus.tokens
        groups = [x[outcome.expert_of_token == i] for i in range(8)]
        occupied = [i for i, g in enumerate(groups) if len(g) >= 2]
        diag = np.mean([mean_of(hist.pair_counts[i, i]) for i in occupied])
        pairs = [
            (i, j)
            for i in occupied
            for j in occupied
            if i < j and hist.pair_counts[i, j].sum() > 0
        ]
        off = np.mean([mean_of(hist.pair_counts[i, j]) for i, j in pairs])
        assert diag > off

    def test_uniform_sphere_cosines_concentrate_near_zero(self):
        d = 64
        batch = sample_unit_sphere(SphereSampleConfig(dim=d, n_samples=600, seed=6))
        w = build_block_gating(8, d)
        outcome = route_top1(gate_scores(batch.tokens, w))
        hist = cosine_histograms(batch, outcome, w)
        mids = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
        total = hist.pair_counts.sum(axis=(0, 1))
        mean = float((total * mids).sum() / total.sum())
        var = float((total * (mids - mean) ** 2).sum() / total.sum())
        # token cosines on the sphere have std about 1/sqrt(d)
        assert abs(mean) < 0.05
        assert math.sqrt(var) == pytest.approx(1 / math.sqrt(d), rel=0.35)

    def test_empty_expert_bucket_is_empty_histogram(self):
        from moelab.router import TokenBatch

        w = build_block_gating(4, 8)
        batch = TokenBatch(
            tokens=np.tile(w[0], (5, 1)), token_ids=np.arange(5)
        )
        outcome = route_top1(gate_scores(batch.tokens, w))
        hist = cosine_histograms(batch, outcome, w)
        assert hist.pair_counts[1, 1].sum() == 0
        assert hist.pair_counts[1, 2].sum() == 0

    def test_row_iterator_shape(self):
        w = build_block_gating(2, 4)
        from moelab.router import TokenBatch

        batch = TokenBatch(tokens=np.tile(w, (2, 1)), token_ids=np.arange(4))
        outcome = route_top1(gate_scores(batch.tokens, w))
        hist = cosine_histograms(batch, outcome, w, n_bins=16)
        rows = list(hist.iter_rows())
        assert len(rows) == 2 * 2 * 16 + 2 * 16 * 2
