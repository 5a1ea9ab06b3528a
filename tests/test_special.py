import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moelab import special
from moelab.special import erf, erfc, reg_incomplete_beta

from oracles import (
    cody_index_set_reference,
    erf_quad,
    erfc_quad,
    float_reg_incomplete_beta,
    reg_beta_quad,
)


finite = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)
no_deadline = settings(deadline=None)  # timing on a shared host is no property


def bits(x):
    """IEEE bit patterns, so -0.0 differs from 0.0 and NaN equals NaN."""
    return np.asarray(x, dtype=float).view(np.int64)


class TestErf:
    # float.hex() of (erf(x), erfc(x)) at Cody's interval edges 0.46875, 4
    # and 26.543 (erfc's underflow cut), their neighbours, +-0, two tiny
    # inputs and two interior points (4.000299 rounds differently if the
    # large interval's z * num / den is regrouped); the kernel must
    # reproduce these bits exactly.
    PINNED = {
        "0x1.dffffffffffffp-2": ("0x1.f86faa9428f9bp-2", "0x1.03c82ab5eb832p-1"),
        "0x1.e000000000000p-2": ("0x1.f86faa9428f9cp-2", "0x1.03c82ab5eb832p-1"),
        "0x1.e000000000001p-2": ("0x1.f86faa9428f9ep-2", "0x1.03c82ab5eb831p-1"),
        "-0x1.e000000000001p-2": ("-0x1.f86faa9428f9ep-2", "0x1.7e1beaa50a3e8p+0"),
        "-0x1.e000000000000p-2": ("-0x1.f86faa9428f9cp-2", "0x1.7e1beaa50a3e7p+0"),
        "-0x1.dffffffffffffp-2": ("-0x1.f86faa9428f9bp-2", "0x1.7e1beaa50a3e7p+0"),
        "0x1.fffffffffffffp+1": ("0x1.ffffff7b91176p-1", "0x1.08ddd13bd35f8p-26"),
        "0x1.0000000000000p+2": ("0x1.ffffff7b91176p-1", "0x1.08ddd13bd35e7p-26"),
        "0x1.0000000000001p+2": ("0x1.ffffff7b91176p-1", "0x1.08ddd13bd35c5p-26"),
        "-0x1.0000000000001p+2": ("-0x1.ffffff7b91176p-1", "0x1.ffffffbdc88bbp+0"),
        "-0x1.0000000000000p+2": ("-0x1.ffffff7b91176p-1", "0x1.ffffffbdc88bbp+0"),
        "-0x1.fffffffffffffp+1": ("-0x1.ffffff7b91176p-1", "0x1.ffffffbdc88bbp+0"),
        "0x1.a8b020c49ba5dp+4": ("0x1.0000000000000p+0", "0x1.038a055f6d6bbp-1022"),
        "0x1.a8b020c49ba5ep+4": ("0x1.0000000000000p+0", "0x1.038a055f6d35cp-1022"),
        "0x1.a8b020c49ba5fp+4": ("0x1.0000000000000p+0", "0x0.0p+0"),
        "-0x1.a8b020c49ba5fp+4": ("-0x1.0000000000000p+0", "0x1.0000000000000p+1"),
        "-0x1.a8b020c49ba5ep+4": ("-0x1.0000000000000p+0", "0x1.0000000000000p+1"),
        "-0x1.a8b020c49ba5dp+4": ("-0x1.0000000000000p+0", "0x1.0000000000000p+1"),
        "0x0.0p+0": ("0x0.0p+0", "0x1.0000000000000p+0"),
        "-0x0.0p+0": ("-0x0.0p+0", "0x1.0000000000000p+0"),
        "0x1.56e1fc2f8f359p-997": ("0x1.82e6d98711d3ap-997", "0x1.0000000000000p+0"),
        "0x0.0000000000001p-1022": ("0x0.0000000000001p-1022", "0x1.0000000000000p+0"),
        "0x1.8000000000000p+0": ("0x1.eea5557137ae0p-1", "0x1.15aaa8ec85205p-5"),
        "-0x1.8000000000000p+0": ("-0x1.eea5557137ae0p-1", "0x1.f752aab89bd70p+0"),
        "0x1.0004e618ce2d2p+2": ("0x1.ffffff7be47bcp-1", "0x1.0837087763f31p-26"),
        "-0x1.0004e618ce2d2p+2": ("-0x1.ffffff7be47bcp-1", "0x1.ffffffbdf23dep+0"),
    }

    def test_values_pinned_at_interval_edges(self):
        xs = []
        for edge in (0.46875, 4.0, 26.543):
            for v in (edge, -edge):
                xs += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
        xs = [float(x) for x in xs] + [0.0, -0.0, 1e-300, 5e-324, 1.5, -1.5, 4.000299, -4.000299]
        assert sorted(x.hex() for x in xs) == sorted(self.PINNED)
        arr = np.array(xs)
        erf_arr, erfc_arr = erf(arr), erfc(arr)
        for i, x in enumerate(xs):
            want = self.PINNED[x.hex()]
            assert (erf(x).hex(), erfc(x).hex()) == want, x.hex()
            assert (float(erf_arr[i]).hex(), float(erfc_arr[i]).hex()) == want, x.hex()

    def test_erfc_zero(self):
        assert erfc(0.0) == 1.0

    def test_erfc_against_quadrature(self):
        # abs error <= 1e-12: erfc on [0, 6], erf on [-6, 6]
        for x in np.linspace(0.0, 6.0, 61):
            assert abs(erfc(float(x)) - erfc_quad(float(x))) <= 1e-12
        for x in np.linspace(-6.0, 6.0, 121):
            assert abs(erf(float(x)) - erf_quad(float(x))) <= 1e-12

    @no_deadline
    @given(finite)
    def test_erf_plus_erfc_is_one(self, x):
        assert abs(erf(x) + erfc(x) - 1.0) <= 4.5e-16

    @no_deadline
    @given(finite)
    def test_odd_symmetry(self, x):
        assert erf(-x).hex() == (-erf(x)).hex()
        # erfc(-y) is 2 - erfc(y) for y >= 0; for x < 0 the identity would
        # need 2 - (2 - erfc(|x|)), which rounds
        y = abs(x)
        assert erfc(-y).hex() == (2.0 - erfc(y)).hex()

    @no_deadline
    @given(finite)
    def test_ranges(self, x):
        assert -1.0 <= erf(x) <= 1.0
        assert 0.0 <= erfc(x) <= 2.0

    def test_infinities_give_the_limits_without_warning(self):
        # the suite turns RuntimeWarning into an error, so an inf - inf
        # anywhere in the kernel fails here
        assert (erf(np.inf), erf(-np.inf)) == (1.0, -1.0)
        assert (erfc(np.inf), erfc(-np.inf)) == (0.0, 2.0)
        assert math.isnan(erf(np.nan)) and math.isnan(erfc(np.nan))
        x = np.array([np.inf, -np.inf, np.nan])
        assert np.array_equal(erf(x), [1.0, -1.0, np.nan], equal_nan=True)
        assert np.array_equal(erfc(x), [0.0, 2.0, np.nan], equal_nan=True)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-10, 10, 401)
        for f, want in zip((erf, erfc), cody_index_set_reference(xs)):
            assert np.array_equal(bits(f(xs)), bits(want))
            assert np.array_equal(bits([f(float(x)) for x in xs]), bits(want))


class TestErfBitIdentity:
    # the whole-array kernel, on arrays and on numbers, must give the bits of
    # the straight index-set evaluation (tests/oracles.py), not merely close values
    EDGES = [float.fromhex(h) for h in TestErf.PINNED] + [
        math.inf, -math.inf, math.nan, -math.nan,
        2.2250738585072014e-308, -2.2250738585072014e-308, 1e-310, -1e-310, -5e-324,
    ]

    @pytest.mark.parametrize("draw", ["normal 0.18", "normal 5", "uniform 27"])
    def test_arrays_equal_the_index_set_reference(self, draw):
        rng = np.random.default_rng(10)
        x = {
            "normal 0.18": lambda: rng.normal(0.0, 0.18, 100_000),
            "normal 5": lambda: rng.normal(0.0, 5.0, 100_000),
            "uniform 27": lambda: rng.uniform(-27.0, 27.0, 100_000),
        }[draw]()
        x = np.concatenate([x, self.EDGES]).reshape(5, -1)
        want_erf, want_erfc = cody_index_set_reference(x)
        assert np.array_equal(bits(erf(x)).ravel(), bits(want_erf))
        assert np.array_equal(bits(erfc(x)).ravel(), bits(want_erfc))

    @no_deadline
    @given(st.one_of(st.floats(), st.integers(-40, 40)))
    def test_scalar_path_equals_the_one_element_array(self, x):
        for f, want in zip((erf, erfc), cody_index_set_reference(float(x))):
            got = f(x)
            assert type(got) is float
            assert bits(got) == bits(want)[0]


class TestIncompleteBeta:
    def test_bounds(self):
        assert reg_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_incomplete_beta(1.0, 2.0, 3.0) == 1.0
        assert reg_incomplete_beta(np.array([0.0, 1.0]), 2.0, 3.0).tolist() == [0.0, 1.0]

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
            # the array path, on points either side of the branch threshold
            xs = np.array([x, x / 3.0, (1.0 + x) / 2.0])
            want = [reg_beta_quad(float(v), a, b) for v in xs]
            assert reg_incomplete_beta(xs, a, b) == pytest.approx(want, abs=1e-10)

    def test_large_dim_matches_erf_limit(self):
        # at delta^2 = 1/(d - 3/2) with d = 4096 the value approaches
        # erf(1/sqrt(2)) = 0.682689 (tolerance 1e-3)
        d = 4096
        value = reg_incomplete_beta(1.0 / (d - 1.5), 0.5, (d - 1) / 2.0)
        assert value == pytest.approx(0.6826894921370859, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_incomplete_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_incomplete_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_incomplete_beta(0.5, 1.0, -2.0)
        for a, b in ((0.0, 1.0), (1.0, -2.0)):
            with pytest.raises(ValueError, match="shape parameters must be positive"):
                reg_incomplete_beta(np.array([0.5]), a, b)

    def test_a_prefactor_that_underflows_gives_the_tail_limit(self, monkeypatch):
        # at a = 5e299 the prefactor x^a (1-x)^b / (a B(a, b)) is 0 in double precision;
        # the continued fraction is not run there, and would not converge
        def no_fraction(*args):
            raise AssertionError("no continued fraction runs where the prefactor is 0")

        monkeypatch.setattr(special, "_beta_cf", no_fraction)
        assert reg_incomplete_beta(0.99, 5e299, 0.5) == 0.0  # the direct tail
        assert reg_incomplete_beta(0.01, 0.5, 5e299) == 1.0  # the complementary tail
        got = reg_incomplete_beta(np.array([0.0, 0.01, 0.5, 1.0]), 0.5, 5e299)
        assert bits(got).tolist() == bits([0.0, 1.0, 1.0, 1.0]).tolist()


# the shapes the capacity theory uses: a = 1/2 and b = (d - 1) / 2, and swapped
beta_shapes = st.sampled_from([0.5] + [(d - 1) / 2.0 for d in range(2, 8193)])


def outcome(call):
    """A call's value as bit patterns, or its error as (type, message)."""
    try:
        return bits(call()).tolist()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestIncompleteBetaArrayPath:
    # 1e-4 and 0.5 fall either side of the branch threshold at a = 1/2, b = 2047.5
    @no_deadline
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20), beta_shapes, beta_shapes)
    @example([0.0, 1e-4, 0.5, 1.0], 0.5, 2047.5)
    def test_array_path_equals_the_float_path(self, xs, a, b):
        x = np.array(xs)
        want = bits([float_reg_incomplete_beta(v, a, b) for v in xs])
        scalars = [reg_incomplete_beta(v, a, b) for v in xs]
        assert all(type(v) is float for v in scalars) and np.array_equal(bits(scalars), want)
        assert np.array_equal(bits(reg_incomplete_beta(x, a, b)), want)
        assert np.array_equal(bits(reg_incomplete_beta(x.reshape(1, -1), a, b)), want.reshape(1, -1))
        got = reg_incomplete_beta(x[0].reshape(()), a, b)
        assert type(got) is float and bits(got) == want[0]

    @no_deadline
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats()), min_size=1, max_size=8),
           beta_shapes, beta_shapes, st.sampled_from([1, 3, 10, special._CF_ITMAX]))
    def test_array_path_raises_the_float_paths_errors(self, xs, a, b, itmax):
        # the float reference's error at the first x outside [0, 1] (NaN included),
        # which is found before anything is computed; else, at a cut
        # iteration limit, its error at the first point that does not converge
        invalid = [v for v in xs if not 0.0 <= v <= 1.0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(special, "_CF_ITMAX", itmax)
            ref = float_reg_incomplete_beta
            want = outcome(lambda: ref(invalid[0], a, b) if invalid else [ref(v, a, b) for v in xs])
            assert outcome(lambda: reg_incomplete_beta(np.array(xs), a, b)) == want
