import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moelab import cli
from moelab.router import (
    _BLOCK_ROWS,
    RoutingOutcome,
    apply_capacity,
    build_block_gating,
    fnv1a64,
    gate_scores,
    hash_route,
    route_top1,
    softmax,
    softmax_backward,
    top1,
)
from moelab.capacity import SphereSampleConfig, cosine_histograms, sample_unit_sphere

from oracles import (
    fnv1a64_reference,
    fresh_array_gate_scores,
    fresh_array_softmax,
    softmax_reference,
    traced_peak,
)


class TestConfig:
    def test_rejects_non_divisible_dim(self):
        with pytest.raises(ValueError, match="7.*not divisible.*3|dim=7"):
            build_block_gating(3, 7)

    def test_rejects_negative_noise(self):
        w = build_block_gating(2, 4)
        with pytest.raises(ValueError, match="noise_std must be >= 0, got -0.1"):
            gate_scores(np.zeros((1, 4)), w, noise_std=-0.1)


class TestGrapWeights:
    def test_two_by_four(self):
        w = build_block_gating(2, 4)
        assert np.array_equal(w, [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])

    def test_identity_case(self):
        w = build_block_gating(1, 1)
        assert np.array_equal(w, [[1.0]])

    def test_four_by_eight_orthogonal(self):
        w = build_block_gating(4, 8)
        assert np.all(np.sum(w != 0, axis=1) == 2)
        assert np.all(w[w != 0] == 0.5)
        gram = w @ w.T
        assert np.allclose(gram - np.diag(np.diag(gram)), 0.0, atol=0.0)

    def test_rows_orthogonal_equal_norm(self):
        # pairwise dots exactly zero, norms sqrt(n/d) to 1e-12
        for n, d in [(2, 4), (8, 64), (16, 128), (5, 20)]:
            w = build_block_gating(n, d)
            gram = w @ w.T
            off = gram - np.diag(np.diag(gram))
            assert np.all(off == 0.0)
            norms = np.linalg.norm(w, axis=1)
            assert np.abs(norms - math.sqrt(n / d)).max() <= 1e-12


class TestGateScores:
    def test_basis_vector(self):
        w = build_block_gating(2, 4)
        x = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(gate_scores(x, w), [[0.5, 0.0]])

    def test_relu_floor_on_negative_tokens(self):
        w = build_block_gating(2, 4)
        x = np.array([[-1.0, -2.0, -0.5, -3.0]])
        assert np.array_equal(gate_scores(x, w), [[0.0, 0.0]])

    def test_blockwise_mean_oracle(self):
        # scores equal clipped means of coordinate blocks, scaled by n/d
        n, d = 8, 64
        w = build_block_gating(n, d)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)
        scores = gate_scores(x[None, :], w)[0]
        expected = np.maximum(x.reshape(n, d // n).mean(axis=1), 0.0)
        assert np.allclose(scores, expected, atol=1e-15)

    def test_noise_is_seed_deterministic(self):
        w = build_block_gating(4, 8)
        x = np.random.default_rng(0).standard_normal((5, 8))
        a = gate_scores(x, w, noise_std=0.3, seed=11)
        b = gate_scores(x, w, noise_std=0.3, seed=11)
        c = gate_scores(x, w, noise_std=0.3, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dimension_mismatch(self):
        w = build_block_gating(2, 4)
        with pytest.raises(ValueError, match="dim"):
            gate_scores(np.array([[1.0, 2.0]]), w)


class TestRouteTop1:
    def test_argmax_and_gate(self):
        out = route_top1(np.array([[0.1, 0.7, 0.2]]))
        assert out.expert_of_token[0] == 1
        assert out.gate_value[0] == pytest.approx(softmax_reference([0.1, 0.7, 0.2])[1], abs=1e-15)

    def test_tie_goes_to_lowest_index(self):
        out = route_top1(np.zeros((1, 4)))
        assert out.expert_of_token[0] == 0
        assert out.gate_value[0] == pytest.approx(0.25, abs=1e-15)

    def test_scale_and_shift_invariance_of_assignment(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((200, 8))
        base = route_top1(scores)
        moved = route_top1(3.7 * scores + 11.0)
        assert np.array_equal(base.expert_of_token, moved.expert_of_token)
        assert not np.allclose(base.gate_value, moved.gate_value)

    def test_outcome_statistics_contract(self):
        rng = np.random.default_rng(6)
        out = route_top1(rng.standard_normal((1000, 6)))
        assert abs(out.f.sum() - 1.0) <= 1e-12
        assert abs(out.P.sum() - 1.0) <= 1e-9
        assert np.all((out.P >= 0) & (out.P <= 1))
        assert np.all(out.gate_value > 0) and np.all(out.gate_value <= 1)
        assert not out.dropped.any()
        # gate, f and P all derive from the outcome's per-token probs
        assert np.array_equal(out.gate_value, out.probs[np.arange(1000), out.expert_of_token])
        assert np.array_equal(out.P, out.probs.mean(axis=0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            route_top1(np.array([[1.0, np.inf]]))

    def test_rejects_empty_batch(self):
        # f and P are means over tokens: an empty batch has none to give
        with pytest.raises(ValueError, match="at least one token"):
            route_top1(np.zeros((0, 4)))
        with pytest.raises(ValueError, match="at least one token"):
            hash_route(np.zeros(0, dtype=np.int64), 4)

    def test_minimum_angle_selection_matches_argmax(self):
        # with equal-norm rows, the raw-score argmax is the minimum-angle
        # expert; checked on tokens whose best score is positive
        n, d = 8, 64
        w = build_block_gating(n, d)
        batch = sample_unit_sphere(SphereSampleConfig(dim=d, n_samples=2000, seed=1))
        raw = batch.tokens @ w.T
        keep = raw.max(axis=1) > 0
        cosines = raw[keep] / (
            np.linalg.norm(w, axis=1) * np.linalg.norm(batch.tokens[keep], axis=1)[:, None]
        )
        routed = route_top1(np.maximum(raw[keep], 0.0))
        assert np.array_equal(routed.expert_of_token, np.argmax(cosines, axis=1))

    def test_uniform_sphere_near_balanced(self):
        # spherical symmetry: assignment fractions near 1/n (small-scale
        # version of the acceptance check, via the raw-score argmax)
        n, d, t = 8, 64, 20000
        w = build_block_gating(n, d)
        batch = sample_unit_sphere(SphereSampleConfig(dim=d, n_samples=t, seed=2))
        assign = np.argmax(batch.tokens @ w.T, axis=1)
        f = np.bincount(assign, minlength=n) / t
        sigma = math.sqrt((1 / n) * (1 - 1 / n) / t)
        assert np.abs(f - 1 / n).max() <= 3 * sigma


class TestApplyCapacity:
    def test_enumeration_oracle(self):
        # 10 tokens all to expert 0, cap 4: exactly the first 4 survive
        out = route_top1(np.tile([5.0, 0.0], (10, 1)))
        capped = apply_capacity(out, 4)
        assert capped.dropped.sum() == 6
        assert np.array_equal(np.flatnonzero(~capped.dropped), [0, 1, 2, 3])
        # f keeps the pre-drop accounting
        assert capped.f[0] == 1.0

    def test_large_cap_drops_nothing(self):
        rng = np.random.default_rng(8)
        out = route_top1(rng.standard_normal((50, 4)))
        assert not apply_capacity(out, 50).dropped.any()

    def test_never_increases_served_and_keeps_assignment(self):
        rng = np.random.default_rng(9)
        out = route_top1(rng.standard_normal((300, 5)))
        before = out.served_counts()
        capped = apply_capacity(out, 3)
        after = capped.served_counts()
        assert np.all(after <= before)
        assert np.all(after <= 3)
        assert np.array_equal(capped.expert_of_token, out.expert_of_token)
        assert np.array_equal(capped.gate_value, out.gate_value)

    def test_capped_statistics_keep_the_input_bits(self):
        rng = np.random.default_rng(10)
        out = route_top1(rng.standard_normal((4097, 16)))
        before = {name: getattr(out, name).tobytes()
                  for name in ("expert_of_token", "probs", "dropped", "gate_value", "f", "P")}
        capped = apply_capacity(out, 200)
        assert capped.dropped.any()
        for name in ("expert_of_token", "probs", "gate_value", "f", "P"):
            assert getattr(capped, name).tobytes() == before[name]
        assert {name: getattr(out, name).tobytes() for name in before} == before  # input unwritten
        assert type(capped) is RoutingOutcome

    def test_batch_order_within_expert(self):
        scores = np.array([[1.0, 0], [0, 1.0], [1.0, 0], [1.0, 0], [0, 1.0]])
        capped = apply_capacity(route_top1(scores), 1)
        # first token per expert survives, later ones drop
        assert np.array_equal(capped.dropped, [False, False, True, True, True])

    def test_rejects_cap_below_one(self):
        out = route_top1(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            apply_capacity(out, 0)


class TestHashRoute:
    def test_reference_hash_values(self):
        ids = np.arange(64)
        mine = fnv1a64(ids)
        ref = np.array([fnv1a64_reference(i) for i in ids], dtype=np.uint64)
        assert np.array_equal(mine, ref)
        # frozen spot value, computed from the byte-at-a-time reference
        assert int(fnv1a64(np.array([0]))[0]) == 0xA8C7F832281A39C5

    def test_single_expert(self):
        out = hash_route(np.arange(10), 1)
        assert np.all(out.expert_of_token == 0)
        assert np.all(out.gate_value == 1.0)

    def test_large_range_near_uniform(self):
        # direct count oracle over the fixed hash
        ids = np.arange(100_000)
        out = hash_route(ids, 16)
        counts = np.zeros(16, dtype=int)
        for i in range(0, 100_000, 9973):  # spot-check the vectorized counts
            assert out.expert_of_token[i] == fnv1a64_reference(i) % 16
        np.add.at(counts, out.expert_of_token, 1)
        assert np.abs(counts / 100_000 - 1 / 16).max() < 0.01

    def test_deterministic_across_runs(self):
        ids = np.arange(1000)
        a = hash_route(ids, 7)
        b = hash_route(ids, 7)
        assert np.array_equal(a.expert_of_token, b.expert_of_token)

    def test_p_equals_f(self):
        out = hash_route(np.arange(500), 4)
        assert np.array_equal(out.probs, np.eye(4)[out.expert_of_token])
        assert np.array_equal(out.P, out.f)
        assert abs(out.P.sum() - 1.0) <= 1e-12


class TestSwitchRoute:
    """The switch (dense) router: route_top1 over the raw inner products tokens @ W.T."""

    def test_matches_block_gating_on_nonnegative_tokens(self):
        w = build_block_gating(4, 8)
        rng = np.random.default_rng(10)
        tokens = np.abs(rng.standard_normal((50, 8)))
        relu_based = route_top1(gate_scores(tokens, w))
        dense = route_top1(tokens @ w.T)
        assert np.array_equal(relu_based.expert_of_token, dense.expert_of_token)

    def test_zero_matrix_routes_to_expert_zero(self):
        tokens = np.random.default_rng(1).standard_normal((6, 4))
        out = route_top1(tokens @ np.zeros((3, 4)).T)
        assert np.all(out.expert_of_token == 0)
        assert np.allclose(out.gate_value, 1 / 3)

    def test_softmax_monotonicity(self):
        rng = np.random.default_rng(12)
        tokens = rng.standard_normal((100, 6))
        w = rng.standard_normal((5, 6))
        out = route_top1(tokens @ w.T)
        assert np.array_equal(out.expert_of_token, np.argmax(tokens @ w.T, axis=1))

    def test_rejects_non_finite_weights(self):
        with pytest.raises(ValueError, match="scores contain non-finite entries"):
            route_top1(np.array([[1.0, 2.0]]) @ np.array([[np.nan, 1.0]]).T)

    def test_softmax_backward_is_the_jacobian_product_per_row(self):
        rng = np.random.default_rng(13)
        probs = softmax(rng.standard_normal((7, 5)))
        d_probs = rng.standard_normal((7, 5))
        got = softmax_backward(probs, d_probs)
        for s, g, row in zip(probs, d_probs, got):
            want = (np.diag(s) - np.outer(s, s)) @ g
            assert np.allclose(row, want, rtol=0.0, atol=1e-15)


class TestRoutingProperties:
    @settings(deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=60), st.integers(1, 8))
    def test_capacity_serves_each_experts_first_tokens_in_batch_order(self, assigned, cap):
        expert = np.array(assigned)
        outcome = RoutingOutcome(expert_of_token=expert, probs=np.eye(5)[expert])
        capped = apply_capacity(outcome, cap)
        assert (capped.served_counts() <= cap).all()
        for e in range(5):
            mine = np.flatnonzero(expert == e)
            assert np.array_equal(np.flatnonzero(~capped.dropped & (expert == e)), mine[:cap])

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=60), st.integers(1, 6),
           st.lists(st.integers(0, 60), max_size=6))
    @example([0] * 10 + [1] * 3 + [0] * 2, 1, [3, 5, 12])  # cuts inside expert 0's run, cap 1
    @example([2] * 9, 4, [2, 6, 7])
    def test_blocks_chained_by_their_counts_drop_what_the_whole_batch_drops(self, assigned, cap, cuts):
        expert = np.array(assigned)
        bounds = [0, *sorted(min(c, expert.size) for c in cuts), expert.size]
        whole = apply_capacity(RoutingOutcome(expert_of_token=expert, probs=np.eye(4)[expert]), cap)
        before = np.zeros(4, dtype=np.int64)
        dropped = []
        for lo, hi in zip(bounds, bounds[1:]):
            if lo == hi:
                continue
            part = expert[lo:hi]
            block = RoutingOutcome(expert_of_token=part, probs=np.eye(4)[part])
            dropped.append(apply_capacity(block, cap, before).dropped)
            before += block.assigned_counts()
        assert np.array_equal(np.concatenate(dropped), whole.dropped)

    # coarse integer scores make ties common
    @settings(deadline=None)
    @given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_top1_is_equivariant_under_token_permutation(self, t, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(-2, 3, (t, n)).astype(float)
        perm = rng.permutation(t)
        base, moved = route_top1(scores), route_top1(scores[perm])
        assert np.array_equal(moved.expert_of_token, base.expert_of_token[perm])
        assert np.array_equal(moved.probs, base.probs[perm])
        assert np.array_equal(moved.gate_value, base.gate_value[perm])
        assert np.array_equal(moved.f, base.f)
        assert np.allclose(moved.P, base.P, rtol=0.0, atol=1e-15)

    @settings(deadline=None)
    @given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_ties_break_to_the_lowest_index(self, t, n, seed):
        scores = np.random.default_rng(seed).integers(0, 3, (t, n)).astype(float)
        for route in (top1, route_top1):
            got = route(scores).expert_of_token
            for m, row in enumerate(scores):
                assert got[m] == min(i for i, v in enumerate(row) if v == row.max())


# few distinct values make ties common; NaN and +-inf make non-finite rows
SCORE_CELLS = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e3, 1e3),
                        st.sampled_from([math.inf, -math.inf, math.nan]))


class TestKernelBits:
    """softmax and gate_scores work in place in their own fresh arrays and
    give the bits of the one-array-per-step expressions."""

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)), elements=SCORE_CELLS))
    @example(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [math.nan] * 3, [math.inf, 0.0, -math.inf],
                       [-math.inf] * 3, [-3.0, 2.0, 2.0]]))
    @example(np.array([[0.5], [math.nan], [-math.inf], [math.inf]]))
    def test_softmax_matches_the_fresh_array_expression(self, scores):
        before = scores.tobytes()
        with np.errstate(all="ignore"):
            got, want = softmax(scores), fresh_array_softmax(scores)
        assert scores.tobytes() == before
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(8)), elements=st.floats(-4.0, 4.0)),
           st.sampled_from([0.0, 0.05, 1.0]), st.integers(0, 2**32 - 1))
    def test_gate_scores_match_the_fresh_array_expression(self, tokens, noise_std, seed):
        weights = build_block_gating(4, 8)
        before = tokens.tobytes(), weights.tobytes()
        got = gate_scores(tokens, weights, noise_std, seed)
        want = fresh_array_gate_scores(tokens, weights, noise_std, seed)
        assert (tokens.tobytes(), weights.tobytes()) == before
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
    def test_noise_drawn_by_block_is_one_draw(self, t):
        tokens = np.random.default_rng(t).standard_normal((t, 8))
        weights = build_block_gating(4, 8)
        want = fresh_array_gate_scores(tokens, weights, 0.05, t)
        assert gate_scores(tokens, weights, 0.05, t).tobytes() == want.tobytes()
        # blocks scored with one Generator continue its stream: the whole batch's noise
        rng = np.random.default_rng(t)
        cuts = range(0, t, 1000)
        blocks = [gate_scores(tokens[lo:lo + 1000], weights, 0.05, seed=rng) for lo in cuts]
        assert np.concatenate(blocks).tobytes() == want.tobytes()


class TestRouteSimMemory:
    """Traced peaks of route-sim's kernels at its default (T, n, d), in
    units of one (T, n) float array: no kernel holds a transient (T, n) copy
    beyond what it returns."""

    T, N, D = 100_000, 8, 64
    UNIT = T * N * 8

    @pytest.fixture(scope="class")
    def routed(self):
        batch = sample_unit_sphere(SphereSampleConfig(dim=self.D, n_samples=self.T, seed=0))
        weights = build_block_gating(self.N, self.D)
        scores = gate_scores(batch.tokens, weights)
        return batch, weights, scores, route_top1(scores)

    def test_route_top1_is_its_probabilities_plus_vectors(self, routed):
        _, _, scores, _ = routed
        _, peak = traced_peak(lambda: route_top1(scores))
        assert peak <= 2.0 * self.UNIT

    def test_gate_scores_is_its_output(self, routed):
        batch, weights, _, _ = routed
        _, peak = traced_peak(lambda: gate_scores(batch.tokens, weights))
        assert peak <= 1.25 * self.UNIT

    def test_noisy_gate_scores_hold_one_noise_block(self, routed):
        batch, weights, _, _ = routed
        _, peak = traced_peak(lambda: gate_scores(batch.tokens, weights, 0.05, seed=1))
        assert peak <= 1.25 * self.UNIT

    def test_cosine_histograms_hold_no_cosine_table(self, routed):
        batch, weights, _, outcome = routed
        _, peak = traced_peak(lambda: cosine_histograms([(batch.tokens, outcome.expert_of_token)], weights))
        assert peak <= 1.0 * self.UNIT

    def test_route_sim_peak_does_not_grow_with_tokens(self, tmp_path):
        def peak(tokens):
            argv = ["route-sim", "--tokens", str(tokens), "--capacity-factor", "1.0", "--histograms",
                    "--force", "--out", str(tmp_path / "r.csv")]
            rc, traced = traced_peak(lambda: cli.main(argv))
            assert rc == 0
            return traced

        assert peak(4 * self.T) <= 1.1 * peak(self.T)
