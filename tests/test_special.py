import numpy as np
import pytest

from moelab.special import (
    erf,
    erfc,
    reg_incomplete_beta,
    reg_incomplete_beta_complement,
)

from oracles import erfc_quad, reg_beta_quad


class TestErf:
    def test_erfc_zero(self):
        assert erfc(0.0) == 1.0

    def test_erfc_against_quadrature(self):
        # abs error <= 1e-12 on [0, 6]
        for x in np.linspace(0.0, 6.0, 61):
            assert abs(erfc(float(x)) - erfc_quad(float(x))) <= 1e-12

    def test_erf_plus_erfc_is_one(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-8, 8, 20):
            assert erf(float(x)) + erfc(float(x)) == pytest.approx(1.0, abs=1e-14)

    def test_odd_symmetry(self):
        for x in (0.1, 0.7, 2.3, 5.0):
            assert erf(-x) == pytest.approx(-erf(x), abs=1e-15)
            assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-14)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-10, 10, 401)
        vec = erf(xs)
        scal = np.array([erf(float(x)) for x in xs])
        assert np.array_equal(vec, scal)
        assert np.array_equal(erfc(xs), np.array([erfc(float(x)) for x in xs]))


class TestIncompleteBeta:
    def test_bounds(self):
        assert reg_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_density(self):
        assert reg_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_quadrature(self):
        cases = [
            (0.3, 0.5, 2.5),
            (0.1, 2.0, 2.0),
            (0.02, 0.5, 31.5),
            (0.9, 5.0, 1.5),
            (1.0 / 4096.0, 0.5, 2047.5),
            (0.0625, 0.5, 7.5),
        ]
        for x, a, b in cases:
            assert reg_incomplete_beta(x, a, b) == pytest.approx(
                reg_beta_quad(x, a, b), abs=1e-10
            )

    def test_large_dim_matches_erf_limit(self):
        # at delta^2 = 1/(d - 3/2) with d = 4096 the value approaches
        # erf(1/sqrt(2)) = 0.682689 (tolerance 1e-3)
        d = 4096
        value = reg_incomplete_beta(1.0 / (d - 1.5), 0.5, (d - 1) / 2.0)
        assert value == pytest.approx(0.6826894921370859, abs=1e-3)

    def test_complement_is_tail_accurate(self):
        # deep tail where 1 - I_x would lose all precision to cancellation
        comp = reg_incomplete_beta_complement(0.75, 0.5, 127.5)
        assert comp == pytest.approx(reg_beta_quad(0.25, 127.5, 0.5), rel=1e-10)
        assert 0.0 < comp < 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_incomplete_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_incomplete_beta(0.5, 1.0, -2.0)
