import math

import numpy as np
import pytest

from moelab.losses import (
    GradCheckReport,
    LossConfig,
    aux_loss,
    aux_loss_grad_p,
    cross_entropy,
    cross_entropy_grad,
    grad_check,
    locality_loss,
    locality_loss_grad,
    locality_loss_grad_logits,
    make_local_target,
    mean_cross_entropy,
)
from moelab.router import softmax


class TestConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.alpha == 0.01 and cfg.mu == 0.01 and cfg.epsilon_smooth == 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            LossConfig(epsilon_smooth=0.0)
        with pytest.raises(ValueError):
            LossConfig(epsilon_smooth=1.0)


class TestAuxLoss:
    def test_uniform_gives_alpha_exactly(self):
        for n in (2, 4, 10, 16):
            u = np.full(n, 1.0 / n)
            assert aux_loss(u, u, 0.01) == pytest.approx(0.01, abs=1e-14)

    def test_full_collapse_gives_alpha_times_n(self):
        f = np.array([1.0, 0.0])
        assert aux_loss(f, f, 0.01) == pytest.approx(0.02, abs=1e-15)

    def test_direct_sum_oracle(self):
        f = np.array([0.4, 0.3, 0.2, 0.1])
        p = np.full(4, 0.25)
        expected = 0.01 * 4 * sum(fi * pi for fi, pi in zip(f, p))
        assert aux_loss(f, p, 0.01) == pytest.approx(expected, abs=1e-16)
        assert expected == pytest.approx(0.01, abs=1e-15)

    def test_uniform_is_minimum_on_diagonal(self):
        # over the family f = P, uniform minimizes; one-hot gives alpha*n
        rng = np.random.default_rng(0)
        n = 6
        u = np.full(n, 1.0 / n)
        floor = aux_loss(u, u, 0.01)
        for _ in range(200):
            p = rng.dirichlet(np.ones(n))
            assert aux_loss(p, p, 0.01) >= floor - 1e-12

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            aux_loss(np.array([1.2, -0.2]), np.array([0.5, 0.5]), 0.01)

    def test_gradient_is_alpha_n_f(self):
        f = np.array([0.7, 0.2, 0.1])
        assert np.allclose(aux_loss_grad_p(f, 0.05), 0.05 * 3 * f, atol=0.0)


class TestLocalTarget:
    def test_two_node_split(self):
        target = make_local_target([0, 0, 1, 1], source_node=0, epsilon_smooth=1e-3)
        assert np.allclose(target, [0.4995, 0.4995, 0.0005, 0.0005], atol=1e-15)
        assert target.sum() == pytest.approx(1.0, abs=1e-15)

    def test_all_local_is_uniform_without_smoothing(self):
        target = make_local_target([1, 1, 1], source_node=1, epsilon_smooth=1e-3)
        assert np.allclose(target, 1 / 3, atol=1e-15)

    def test_no_local_falls_back_to_uniform(self):
        target = make_local_target([0, 0, 1, 1], source_node=5)
        assert np.allclose(target, 0.25, atol=1e-15)

    def test_empty_placement(self):
        with pytest.raises(ValueError, match="empty"):
            make_local_target([], source_node=0)


class TestLocalityLoss:
    def test_identical_distributions_give_zero(self):
        d = np.array([0.25, 0.25, 0.5])
        assert locality_loss(d, d, 1.0) == 0.0

    def test_two_term_kl_oracle(self):
        d_c = np.array([0.5, 0.5])
        d_l = np.array([0.75, 0.25])
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert locality_loss(d_c, d_l, 1.0) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            d_c = rng.dirichlet(np.ones(n))
            d_l = rng.dirichlet(np.ones(n)) + 1e-6
            d_l /= d_l.sum()
            assert locality_loss(d_c, d_l, 1.0) >= -1e-15

    def test_zero_times_log_zero(self):
        d_c = np.array([1.0, 0.0])
        d_l = np.array([0.9, 0.1])
        assert locality_loss(d_c, d_l, 1.0) == pytest.approx(math.log(1 / 0.9), abs=1e-15)

    def test_zero_target_on_support_raises(self):
        with pytest.raises(ValueError, match="zero"):
            locality_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1.0)

    def test_mu_scales(self):
        d_c = np.array([0.7, 0.3])
        d_l = np.array([0.5, 0.5])
        assert locality_loss(d_c, d_l, 0.2) == pytest.approx(
            0.2 * locality_loss(d_c, d_l, 1.0) / 1.0, abs=1e-15
        )


class TestCrossEntropy:
    def test_huge_margin_is_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert cross_entropy(logits, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits(self):
        t, n = 7, 5
        assert cross_entropy(np.zeros((t, n)), np.zeros(t, dtype=int)) == pytest.approx(
            t * math.log(n), abs=1e-12
        )

    def test_two_by_two_oracle(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = 2.0 * math.log(1.0 + math.exp(-1.0))
        assert cross_entropy(logits, [0, 1]) == pytest.approx(expected, abs=1e-14)

    def test_sum_not_mean(self):
        logits = np.tile([0.3, -0.4, 0.1], (10, 1))
        targets = np.zeros(10, dtype=int)
        assert cross_entropy(logits, targets) == pytest.approx(
            10 * mean_cross_entropy(logits, targets), rel=1e-15
        )

    def test_stability_under_large_shifts(self):
        logits = np.array([[1000.0, 999.0]])
        assert cross_entropy(logits, [0]) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="range"):
            cross_entropy(np.zeros((2, 3)), [0, 3])


class TestGradCheck:
    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(3)
        t, n = 5, 4
        targets = rng.integers(0, n, t)
        report = grad_check(
            lambda lg: cross_entropy(lg.reshape(t, n), targets),
            lambda lg: cross_entropy_grad(lg.reshape(t, n), targets).ravel(),
            rng.normal(0, 2, t * n),
        )
        assert isinstance(report, GradCheckReport)
        assert report.passed and report.max_rel_err <= 1e-4

    def test_locality_gradient_vanishes_at_target(self):
        d_l = np.array([0.4, 0.35, 0.25])
        logits = np.log(d_l)
        grad = locality_loss_grad_logits(logits, d_l, 1.0)
        assert np.abs(grad).max() <= 1e-12

    def test_locality_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        d_l = rng.dirichlet(np.ones(5)) + 1e-3
        d_l /= d_l.sum()
        report = grad_check(
            lambda z: locality_loss(softmax(z[None, :])[0], d_l, 0.7),
            lambda z: locality_loss_grad_logits(z, d_l, 0.7),
            rng.normal(0, 1, 5),
        )
        assert report.passed

    def test_locality_gradient_is_zero_off_the_support(self):
        d_c = np.array([0.5, 0.0, 0.5])
        d_l = np.array([0.2, 0.3, 0.5])
        grad = locality_loss_grad(d_c, d_l, 0.5)
        assert grad[1] == 0.0
        assert grad[0] == pytest.approx(0.5 * (math.log(0.5 / 0.2) + 1.0), rel=1e-15)
        assert np.all(np.isfinite(grad))

    def test_locality_gradient_through_softmax_matches_fd(self):
        rng = np.random.default_rng(5)
        d_l = rng.dirichlet(np.ones(6)) + 1e-3
        d_l /= d_l.sum()

        def grad_logits(z):  # softmax Jacobian diag(s) - s s^T times the gradient
            s = softmax(z[None, :])[0]
            return (np.diag(s) - np.outer(s, s)) @ locality_loss_grad(s, d_l, 0.3)

        report = grad_check(
            lambda z: locality_loss(softmax(z[None, :])[0], d_l, 0.3),
            grad_logits,
            rng.normal(0, 1, 6),
        )
        assert report.passed

    def test_aux_gradient_is_linear(self):
        f = np.array([0.5, 0.3, 0.2])
        # d(aux)/dP_i = alpha*n*f_i exactly, independent of P
        assert np.allclose(aux_loss_grad_p(f, 0.01), 0.01 * 3 * f, atol=0.0)
