import math

import numpy as np
import pytest

from moelab.router import (
    TokenBatch,
    apply_capacity,
    build_block_gating,
    fnv1a64,
    gate_scores,
    hash_route,
    route_top1,
    switch_route,
)
from moelab.capacity import SphereSampleConfig, sample_unit_sphere

from oracles import fnv1a64_reference, softmax_reference


class TestConfig:
    def test_rejects_non_divisible_dim(self):
        with pytest.raises(ValueError, match="7.*not divisible.*3|dim=7"):
            build_block_gating(3, 7)

    def test_rejects_negative_noise(self):
        w = build_block_gating(2, 4)
        with pytest.raises(ValueError, match="noise_std must be >= 0, got -0.1"):
            gate_scores(np.zeros((1, 4)), w, noise_std=-0.1)

    def test_unit_norm_validation(self):
        with pytest.raises(ValueError, match="norm"):
            TokenBatch(tokens=[[1.0, 1.0]], token_ids=[0], unit_norm=True)


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
    def test_matches_block_gating_on_nonnegative_tokens(self):
        w = build_block_gating(4, 8)
        rng = np.random.default_rng(10)
        tokens = np.abs(rng.standard_normal((50, 8)))
        relu_based = route_top1(gate_scores(tokens, w))
        dense = switch_route(tokens, w)
        assert np.array_equal(relu_based.expert_of_token, dense.expert_of_token)

    def test_zero_matrix_routes_to_expert_zero(self):
        tokens = np.random.default_rng(1).standard_normal((6, 4))
        out = switch_route(tokens, np.zeros((3, 4)))
        assert np.all(out.expert_of_token == 0)
        assert np.allclose(out.gate_value, 1 / 3)

    def test_softmax_monotonicity(self):
        rng = np.random.default_rng(12)
        tokens = rng.standard_normal((100, 6))
        w = rng.standard_normal((5, 6))
        out = switch_route(tokens, w)
        assert np.array_equal(out.expert_of_token, np.argmax(tokens @ w.T, axis=1))

    def test_rejects_non_finite_weights(self):
        with pytest.raises(ValueError):
            switch_route(np.array([[1.0, 2.0]]), np.array([[np.nan, 1.0]]))
