import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moelab
from moelab import special, verify
from moelab.capacity import (
    _BLOCK_ROWS,
    _NORM_SLICE,
    HIST_BINS,
    HIST_TOKENS_PER_EXPERT,
    CapacityTheoryResult,
    SphereSampleConfig,
    _row_norms,
    cap_area_identity_check,
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

from oracles import (
    one_shot_assignment_fractions,
    one_shot_cosine_histograms,
    one_shot_p_delta,
    one_shot_sphere,
    per_point_cap_identity,
    per_point_capacity_curve,
    reg_beta_quad,
    traced_peak,
)

SRC = str(Path(moelab.__file__).resolve().parents[1])


class TestPDelta:
    def test_boundaries(self):
        assert p_delta(0.0, 64) == 1.0
        assert p_delta(1.0, 64) == 0.0

    def test_large_dim_value_near_point_three(self):
        for d in (1024, 4096):
            delta = 1.0 / math.sqrt(d - 1.5)
            assert 0.28 <= p_delta(delta, d) <= 0.34

    def test_against_quadrature_oracle(self):
        value = p_delta(0.25, 16)
        expected = 1.0 - reg_beta_quad(0.25**2, 0.5, 7.5)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_deep_tail_keeps_full_relative_accuracy(self):
        # delta^2 = 0.75 and 0.8 at d = 256, where 1 - I_{delta^2}(1/2, 127.5)
        # would lose every digit to cancellation; one point, then the array path
        deltas = np.sqrt([0.75, 0.8])
        want = [reg_beta_quad(0.25, 127.5, 0.5), reg_beta_quad(0.2, 127.5, 0.5)]
        points = [p_delta(float(delta), 256) for delta in deltas]
        assert points == pytest.approx(want, rel=1e-10)
        assert all(0.0 < v < 1e-15 for v in points)
        assert p_delta(deltas, 256) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("query", [lambda: p_delta(0.3, 256), lambda: ec_min(0.3, 256, 16)],
                             ids=["p_delta", "ec_min"])
    def test_one_point_checks_its_argument_once_and_runs_one_tail(self, query, monkeypatch):
        calls = dict.fromkeys(["_check_unit", "_beta_cf"], 0)

        def counted(name, f):
            def call(*args):
                calls[name] += 1
                return f(*args)
            return call

        for name in calls:
            monkeypatch.setattr(special, name, counted(name, getattr(special, name)))
        query()
        assert calls == {"_check_unit": 1, "_beta_cf": 1}

    def test_monotone_decreasing_in_delta_and_dim(self):
        deltas = np.linspace(0.05, 0.95, 10)
        for d in (8, 16, 64, 256):
            vals = [p_delta(float(x), d) for x in deltas]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for delta in (0.1, 0.3, 0.6):
            vals = [p_delta(delta, d) for d in (8, 16, 32, 64, 128)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("query", [p_delta, lambda delta, dim: ec_min(delta, dim, 4),
                                       lambda delta, dim: mc_p_delta(delta, dim, 100)],
                             ids=["p_delta", "ec_min", "mc_p_delta"])
    @pytest.mark.parametrize("delta, dim, message", [
        (-0.1, 16, "delta must lie in [0, 1], got -0.1"),
        (1.2, 16, "delta must lie in [0, 1], got 1.2"),
        (np.array([0.1, math.nan, 2.0]), 16, "delta must lie in [0, 1], got nan"),
        (0.5, 1, "dim must be >= 2, got 1"),
        (0.5, 10**400, "dim is too large for a float"),
    ], ids=["delta-negative", "delta-above-one", "delta-nan-in-array", "dim-1", "dim-too-large"])
    def test_input_validation(self, query, delta, dim, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            query(delta, dim)

    @pytest.mark.parametrize("n, message", [(0, "n_experts must be >= 1, got 0"),
                                            (10**400, "n_experts is too large for a float")],
                             ids=["zero", "too-large"])
    def test_expert_count_validation(self, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ec_min(0.5, 16, n)

    def test_the_check_runs_before_anything_is_computed(self, monkeypatch):
        def no_bound(*args):
            raise AssertionError("an invalid query must be refused before any bound is computed")

        monkeypatch.setattr(moelab.capacity, "reg_incomplete_beta", no_bound)
        monkeypatch.setattr(moelab.capacity, "erfc", no_bound)
        for args in ((np.array([0.1, math.inf]), 64, 8), (0.1, 64, 0)):
            with pytest.raises(ValueError):
                ec_min(*args)


class TestMonteCarloPDelta:
    def test_zero_threshold_is_exactly_one(self):
        est, stderr = mc_p_delta(0.0, 64, 1000, seed=0)
        assert est == 1.0 and stderr == 0.0

    def test_agreement_with_analytic(self):
        # analytic formula as the oracle, 3 binomial sigma
        for i, (delta, dim) in enumerate([(0.5, 8), (0.25, 16), (0.1, 64)]):
            analytic = p_delta(delta, dim)
            est, stderr = mc_p_delta(delta, dim, 200_000, seed=20 + i)
            assert abs(est - analytic) <= 3 * stderr

    def test_seed_determinism(self):
        a = mc_p_delta(0.2, 32, 5000, seed=4)
        b = mc_p_delta(0.2, 32, 5000, seed=4)
        assert a == b


class TestEcMin:
    def test_zero_delta_gives_one_over_n(self):
        res = ec_min(0.0, 128, 8)
        assert res.ec_min == pytest.approx(1 / 8, abs=1e-15)
        assert res.degenerate  # 8 * p_delta = 8 > 1
        assert not res.unbounded

    def test_paper_scale_point_and_bound_order(self):
        # erfc form must exceed the exponential form
        res = ec_min(0.03, 4096, 16)
        assert isinstance(res, CapacityTheoryResult)
        assert res.erfc_bound > res.exp_bound
        assert res.ec_min > 1.0
        assert not res.degenerate

    def test_exact_vs_erfc_gap_reported(self):
        # the erfc approximation sits within a few percent of the exact
        # bound in the moderate regime
        res = ec_min(0.1, 1024, 8)
        gap = abs(res.erfc_bound - res.ec_min) / res.ec_min
        assert gap < 0.05

    def test_unbounded_flag_instead_of_crash(self):
        res = ec_min(1.0, 64, 4)
        assert res.unbounded and res.ec_min == math.inf

    def test_broken_invariant_raises_even_under_optimize(self):
        # with erfc replaced by 1 the erfc form drops below the exp form;
        # the check must survive python -O, which strips asserts
        code = (
            "import moelab.capacity as c; c.erfc = lambda y: 1.0; "
            "c.ec_min(0.1, 512, 16)"
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
                res = ec_min(mult / math.sqrt(dim), dim, 16)
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

    def test_rejects_a_budget_that_is_not_finite(self):
        # 1000 * 1e300 / 8 is finite and its ceiling exact; 1000 * 1e308 overflows
        assert empirical_capacity(1000, 1e300, 1, 8) == math.ceil(1000 * 1e300 / 8)
        for factor in (1e308, math.inf):
            with pytest.raises(ValueError, match="is not finite"):
                empirical_capacity(1000, factor, 1, 8)


CURVE_COLUMNS = ["delta", *(field.name for field in dataclasses.fields(CapacityTheoryResult))]


class TestEcMinOverAGrid:
    def test_a_float_gives_floats_and_an_array_gives_arrays(self):
        point = ec_min(0.1, 512, 16)
        assert [type(v) for v in dataclasses.astuple(point)] == [float] * 4 + [bool] * 2
        grid = np.linspace(0.01, 0.5, 50)
        res = ec_min(grid, 512, 16)
        assert list(dataclasses.asdict(res)) == CURVE_COLUMNS[1:]
        for name, col in dataclasses.asdict(res).items():
            assert isinstance(col, np.ndarray) and col.shape == grid.shape, name
            assert col.dtype == (bool if name in ("degenerate", "unbounded") else np.float64), name

    def test_monotone_non_decreasing(self):
        values = ec_min(np.linspace(0.01, 0.5, 50), 512, 16).ec_min
        assert (np.diff(values) >= 0).all()

    def test_small_delta_limit(self):
        res = ec_min(np.array([1e-9, 1e-6]), 512, 16)
        assert res.ec_min[0] == pytest.approx(1 / 16, rel=1e-6)

    def test_spot_value_vs_quadrature(self):
        (bound,) = ec_min(np.array([0.1]), 512, 16).ec_min
        p = 1.0 - reg_beta_quad(0.01, 0.5, 255.5)
        assert bound == pytest.approx(1.0 / (16 * p), rel=1e-9)

    def test_a_grid_entry_outside_the_unit_interval_is_named(self):
        for grid, bad in (([0.1, math.nan], "nan"), ([math.nan], "nan"), ([0.1, math.inf], "inf"),
                          ([0.5, -0.25], "-0.25")):
            with pytest.raises(ValueError, match=re.escape(f"delta must lie in [0, 1], got {bad}")):
                ec_min(np.array(grid), 64, 8)


def column_bits(column):
    """A column's dtype and entries, each float64 as its bit pattern, so -0.0
    differs from 0.0 and a 2-d array from a 1-d one."""
    col = np.asarray(column)
    return col.dtype, (col.view(np.uint64) if col.dtype == np.float64 else col).tolist()


def row_bits(rows):
    """Rows of floats and bools, with each float as its bit pattern and each
    bool tagged by type, so -0.0 differs from 0.0 and a numpy bool from a bool."""
    return [tuple(v.hex() if type(v) is float else (type(v), v) for v in row) for row in rows]


class TestEcMinGridOracle:
    GRIDS = [
        (256, 16, np.linspace(0.02 / 16, 5.0 / 16, 400)),  # the benchmark's range at d = 256
        (16, 4, np.geomspace(1e-9, 0.999, 200)),  # degenerate rows; 1 - delta^2 rounds to 1
        (4096, 16, np.linspace(5e-4, 0.99, 300)),  # unbounded rows; the exp form overflows
        (2, 64, np.linspace(0.01, 0.99, 50)),
    ]

    def test_grid_equals_the_per_point_curve_bitwise(self):
        seen = dict.fromkeys(["low branch", "high branch", "degenerate", "unbounded", "exp overflow"], 0)
        for dim, n, grid in self.GRIDS:
            want = per_point_capacity_curve(dim, n, grid)
            curve = {"delta": grid, **dataclasses.asdict(ec_min(grid, dim, n))}
            assert list(curve) == CURVE_COLUMNS
            for name, col in zip(CURVE_COLUMNS, zip(*want)):
                assert column_bits(curve[name]) == column_bits(col), name
            points = [(delta, *dataclasses.astuple(ec_min(delta, dim, n))) for delta in grid.tolist()]
            assert row_bits(points) == row_bits(want)
            # p_delta is I_x((d - 1) / 2, 1/2) at x = 1 - delta^2; its branch is set by x
            x, a = 1.0 - grid * grid, (dim - 1) / 2.0
            low = x < (a + 1.0) / (a + 2.5)
            seen["low branch"] += int(low.sum())
            seen["high branch"] += int((~low & (x < 1.0)).sum())
            seen["degenerate"] += sum(row[5] for row in want)
            seen["unbounded"] += sum(row[6] for row in want)
            seen["exp overflow"] += sum(row[4] == math.inf for row in want)
        assert all(seen.values()), seen

    def test_broken_invariant_raises_at_the_first_failing_point(self, monkeypatch):
        # erfc replaced by 1 beyond y = 1 drops the erfc form below the exp form there
        real = moelab.capacity.erfc
        monkeypatch.setattr(moelab.capacity, "erfc", lambda y: np.where(np.asarray(y) > 1.0, 1.0, real(y)))
        grid = np.linspace(0.01, 0.5, 50)
        with pytest.raises(RuntimeError) as first:
            for delta in grid.tolist():
                ec_min(delta, 512, 16)
        assert str(first.value).startswith("erfc-form bound")
        assert str(first.value).endswith(f" at {(delta, 512)}")  # the delta that raised
        with pytest.raises(RuntimeError, match=f"^{re.escape(str(first.value))}$"):
            ec_min(grid, 512, 16)


class TestSphereSampling:
    def test_unit_norms(self):
        batch = sample_unit_sphere(SphereSampleConfig(dim=16, n_samples=500, seed=0))
        assert np.abs(np.linalg.norm(batch.tokens, axis=1) - 1.0).max() <= 1e-9

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

    def test_array_equals_the_per_point_reference_bitwise(self):
        grid = np.array([0.0, 1e-3, 0.1, 0.25, 0.5, 0.9, 0.999, 1.0])
        for dim in (3, 8, 20, 256):
            want = [per_point_cap_identity(delta, dim) for delta in grid.tolist()]
            got = cap_area_identity_check(grid, dim)
            for col, ref in zip(got, zip(*want)):
                assert col.shape == grid.shape
                assert column_bits(col) == column_bits(ref)
            square = cap_area_identity_check(grid.reshape(2, 4), dim)
            assert [col.shape for col in square] == [(2, 4)] * 3
            assert [column_bits(col.ravel()) for col in square] == [column_bits(col) for col in got]

    def test_float_delta_gives_three_floats(self):
        for delta in (0.0, 0.3, 1.0, 1):
            got = cap_area_identity_check(delta, 12)
            assert [type(v) for v in got] == [float] * 3
            assert column_bits(got) == column_bits(per_point_cap_identity(float(delta), 12))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, -math.inf])
    def test_delta_outside_the_unit_interval_anywhere_is_rejected(self, bad):
        for deltas in ([bad, 0.5], [0.2, 0.5, bad], [[0.1, bad], [0.3, 0.4]]):
            with pytest.raises(ValueError, match=re.escape(f"delta must lie in [0, 1], got {bad}")):
                cap_area_identity_check(np.array(deltas), 8)
        with pytest.raises(ValueError, match="delta must lie"):
            cap_area_identity_check(bad, 8)

    def test_verify_row_is_the_worst_per_point_error(self):
        worst = max(per_point_cap_identity(float(delta), dim)[2]
                    for dim in range(3, 21) for delta in np.arange(0.1, 0.95, 0.1))
        assert verify.check_cap_identity() == verify.CheckResult(
            "cap-identity", True, f"max abs err {worst:.2e}")


class TestCosineHistograms:
    def test_tokens_equal_to_gating_rows_concentrate_at_one(self):
        w = build_block_gating(4, 8)
        from moelab.router import TokenBatch

        batch = TokenBatch(tokens=np.tile(w, (3, 1)), token_ids=np.arange(12))
        outcome = route_top1(gate_scores(batch.tokens, w))
        hist = cosine_histograms([(batch.tokens, outcome.expert_of_token)], w)
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
        hist = cosine_histograms([(corpus.tokens, outcome.expert_of_token)], w)
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
        hist = cosine_histograms([(batch.tokens, outcome.expert_of_token)], w)
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
            tokens=np.vstack([np.tile(w[0], (5, 1)), w[2]]), token_ids=np.arange(6)
        )
        outcome = route_top1(gate_scores(batch.tokens, w))
        hist = cosine_histograms([(batch.tokens, outcome.expert_of_token)], w)
        assert hist.pair_counts[1, 1].sum() == 0
        assert hist.pair_counts[1, 2].sum() == 0
        assert hist.pair_counts[2, 2].sum() == 0  # one token has no distinct pair
        assert hist.pair_counts[0, 0].sum() == 10 and hist.pair_counts[0, 2].sum() == 5
        assert np.array_equal(hist.pair_counts, hist.pair_counts.transpose(1, 0, 2))


# sample counts either side of the block boundaries of the streamed Monte Carlo
STRADDLE = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlockStreaming:
    """The sphere Monte Carlo works through its draw block by block and
    gives the bits of the one-shot computation."""

    @pytest.mark.parametrize("t", STRADDLE)
    def test_sample_unit_sphere_matches_one_draw(self, t):
        batch = sample_unit_sphere(SphereSampleConfig(dim=6, n_samples=t, seed=t))
        assert same_bits(batch.tokens, one_shot_sphere(6, t, t))
        assert same_bits(batch.token_ids, np.arange(t))

    @pytest.mark.parametrize("t", STRADDLE)
    def test_mc_p_delta_matches_one_draw(self, t):
        for delta, dim in ((0.0, 2), (0.3, 16), (0.9, 3)):
            est, stderr = mc_p_delta(delta, dim, t, seed=t + dim)
            ref_est, ref_stderr = one_shot_p_delta(delta, dim, t, t + dim)
            assert (est.hex(), stderr.hex()) == (ref_est.hex(), ref_stderr.hex())
            assert type(est) is float

    @pytest.mark.parametrize("t", STRADDLE)
    def test_mc_assignment_fractions_matches_one_draw(self, t):
        f, sigma = mc_assignment_fractions(16, 4, t, seed=t)
        assert same_bits(f, one_shot_assignment_fractions(build_block_gating(4, 16), t, t))
        assert sigma == math.sqrt(0.25 * 0.75 / t)

    @pytest.mark.parametrize("t", STRADDLE)
    def test_cosine_histograms_match_one_copy(self, t):
        # unnormalized tokens, and expert 3 never chosen, so it receives no tokens
        rng = np.random.default_rng(t)
        tokens = rng.standard_normal((t, 8)) * rng.uniform(0.5, 3.0, (t, 1))
        w = rng.standard_normal((4, 8))
        scores = tokens @ w.T
        scores[:, 3] = scores.min() - 1.0
        outcome = route_top1(scores)
        assert not (outcome.expert_of_token == 3).any()
        hist = cosine_histograms([(tokens, outcome.expert_of_token)], w)
        ref = one_shot_cosine_histograms(tokens, outcome.expert_of_token, w,
                                         HIST_TOKENS_PER_EXPERT, hist.bin_edges)
        assert same_bits(hist.bin_edges, np.linspace(-1.0, 1.0, HIST_BINS + 1))
        for got, want in zip((hist.pair_counts, hist.routed_counts, hist.nonrouted_counts), ref):
            assert same_bits(got, want)
        assert hist.pair_counts[3].sum() == hist.routed_counts[3].sum() == 0
        assert hist.nonrouted_counts[3].sum() == t


class TestRowNorms:
    """_row_norms squares its rows a slice at a time and keeps the bits of
    np.linalg.norm, whichever slice holds a row."""

    @pytest.mark.parametrize("dim", [2, 3, 64, 1024])
    def test_matches_linalg_norm_bits(self, dim):
        step = _NORM_SLICE // dim
        rng = np.random.default_rng(dim)
        for rows in (0, 1, step - 1, step, step + 1, _BLOCK_ROWS + 1):
            x = rng.standard_normal((rows, dim)) * rng.uniform(0.1, 10.0, (rows, 1))
            for layout in (x, np.asfortranarray(x)):  # a Fortran array is squared whole
                assert same_bits(_row_norms(layout), np.linalg.norm(layout, axis=1, keepdims=True)), rows

    def test_holds_its_output_plus_one_slice(self):
        x = np.random.default_rng(0).standard_normal((_BLOCK_ROWS, 1024))
        norms, peak = traced_peak(lambda: _row_norms(x))
        step = _NORM_SLICE // 1024
        # one slice squared, plus its (step, 1) sums and a few array headers
        assert peak <= norms.nbytes + _NORM_SLICE * 8 + step * 8 + 4096


class TestMonteCarloMemory:
    """Traced peaks: the Monte Carlo memory does not grow with the sample."""

    def test_assignment_fractions_stay_below_a_full_batch(self):
        # the whole (100_000, 128) draw alone would be 102 MB
        _, peak = traced_peak(lambda: mc_assignment_fractions(128, 16, 100_000, seed=0))
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("dim, t", [(64, _BLOCK_ROWS + 1), (8, 3 * _BLOCK_ROWS + 7), (128, 20_000)])
    def test_sample_unit_sphere_is_its_output_plus_one_block(self, dim, t):
        batch, peak = traced_peak(lambda: sample_unit_sphere(SphereSampleConfig(dim=dim, n_samples=t)))
        output = batch.tokens.nbytes + batch.token_ids.nbytes
        block = _BLOCK_ROWS * dim * 8
        row_norms = 2 * _BLOCK_ROWS * 8  # the block's squared-sum and norm columns
        assert peak <= output + block + row_norms

    def test_mc_p_delta_is_its_g_draw_plus_blocks(self):
        t = 200_000
        _, peak = traced_peak(lambda: mc_p_delta(0.3, 128, t, seed=0))
        assert peak <= t * 8 + 8 * _BLOCK_ROWS * 8
