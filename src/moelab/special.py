"""Special functions needed by the capacity theory and the GeLU activation.

Everything here is implemented in-repo (rational approximations and
continued fractions in double precision) so the test suite can check the
results against direct numeric quadrature instead of trusting a library.

erf/erfc follow W. J. Cody's rational approximations (Math. Comp. 23,
1969): one kernel evaluates each of his three intervals of |x| once, and
erf and erfc are sign and complement arithmetic over it, elementwise over
arrays.  The regularized incomplete beta function uses the classic
continued fraction (modified Lentz iteration), elementwise over an array x
with scalar shapes a and b: the points of each tail iterate together, each
keeping the value of the iteration at which it converges, and a tail that
holds no point is not run.  A caller that needs 1 - I_x(a, b) evaluates
I_{1-x}(b, a).  Every function has this one array path: a Python number
goes through it as a 0-d array and comes back as a float.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_PI_INV = 5.6418958354775628695e-1  # 1/sqrt(pi)

# Cody's coefficients: erf on |x| <= 0.46875.
_ERF_A = (
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
    1.85777706184603153e-1,
)
_ERF_B = (
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)

# erfc on 0.46875 < |x| <= 4.
_ERFC_C = (
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
    2.15311535474403846e-8,
)
_ERFC_D = (
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)

# erfc on |x| > 4, rational in 1/x^2.
_ERFC_P = (
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
    1.63153871373020978e-2,
)
_ERFC_Q = (
    2.56852019228982242e00,
    1.87295284992346047e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)

_ERF_SMALL = 0.46875  # Cody's interval edges in y = |x|
_ERFC_MID = 4.0
_ERFC_XBIG = 26.543  # erfc underflows to 0 beyond this


def _horner(t, p, q):
    """Numerator and denominator of Cody's rational form in the array t:
    p[-1] leads the numerator, the denominator is monic, and the order is
    his.  The two buffers are updated in place."""
    num = p[-1] * t
    den = t + q[0]
    for a, b in zip(p, q[1:]):
        num += a
        num *= t
        den *= t
        den += b
    num += p[len(q) - 1]
    return num, den


def _exp_neg_sq(y, frac):
    """exp(-y*y) * frac, with y*y split at y rounded down to 1/16."""
    ysq = np.floor(y * 16.0) / 16.0
    delta = (y - ysq) * (y + ysq)
    return np.exp(-ysq * ysq) * np.exp(-delta) * frac


def _erf_small(t):
    """erf(t) for |t| <= 0.46875: t times a rational in t^2, so odd in t."""
    num, den = _horner(t * t, _ERF_A, _ERF_B)
    num /= den
    num *= t
    return num


def _erfc_mid(t):
    """erfc(t) for 0.46875 < t <= 4 (NaN stays NaN)."""
    num, den = _horner(t, _ERFC_C, _ERFC_D)
    return _exp_neg_sq(t, num / den)


def _erfc_large(t):
    """erfc(t) for 4 < t <= 26.543, rational in 1/t^2."""
    z = 1.0 / (t * t)
    num, den = _horner(z, _ERFC_P, _ERFC_Q)
    return _exp_neg_sq(t, (_SQRT_PI_INV - z * num / den) / t)


def _cody(x):
    """Cody's kernel on a 1-d array x: returns (out, rest), out being erf(x)
    except at the indices rest (|x| > 0.46875, and NaN), where it is
    erfc(|x|).  The small interval is evaluated once over the whole array,
    at x clipped to +-0.46875; then only the entries in rest are
    overwritten, each other interval once on its own index set.  erfc is 0
    beyond 26.543 (no inf - inf at infinity) and NaN stays NaN."""
    t = np.clip(x, -_ERF_SMALL, _ERF_SMALL)
    rest = np.flatnonzero(t != x)
    out = _erf_small(t)
    y = np.abs(x[rest])
    big = y > _ERFC_MID
    mid = ~big  # the mid interval, and NaN
    if mid.any():
        out[rest[mid]] = _erfc_mid(y[mid])
    if big.any():
        far = y > _ERFC_XBIG
        out[rest[far]] = 0.0
        big ^= far
        out[rest[big]] = _erfc_large(y[big])
    return out, rest


def erfc(x):
    """Complementary error function, elementwise over arrays; a number gives a float."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out, rest = _cody(flat)
    tail = out[rest]
    np.abs(out, out=out)
    np.subtract(1.0, out, out=out)
    out[rest] = tail
    np.subtract(2.0, out, out=out, where=flat < 0.0)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def erf(x):
    """Error function, elementwise over arrays; a number gives a float."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out, rest = _cody(flat)
    out[rest] = np.copysign(1.0 - out[rest], flat[rest])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


_CF_EPS = 3e-16
_CF_ITMAX = 2000
_FPMIN = 1e-300


def _tiny(v):
    """v with every entry below _FPMIN in magnitude replaced by _FPMIN."""
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _beta_cf(a, b, x):
    """Continued fraction for the incomplete beta function (modified Lentz)
    over a 1-d array x.  All points iterate together; each point's h is
    frozen at the iteration where its own |delta - 1| < _CF_EPS, and a
    point that never converges is NaN."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.full_like(x, np.nan)
    idx = np.arange(x.size)
    c = np.ones_like(x)
    d = 1.0 / _tiny(1.0 - qab * x / qap)
    h = d
    for m in range(1, _CF_ITMAX + 1):
        if not idx.size:
            break
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _tiny(1.0 + aa * d)
        c = _tiny(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _tiny(1.0 + aa * d)
        c = _tiny(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            out[idx[done]] = h[done]
            live = ~done
            idx, x, c, d, h = idx[live], x[live], c[live], d[live], h[live]
    return out


def _check_unit(x):
    """Raise ValueError naming the first x outside [0, 1], NaN included."""
    flat = np.ravel(x)
    bad = flat[~((flat >= 0.0) & (flat <= 1.0))].tolist()
    if bad:
        raise ValueError(f"x must lie in [0, 1], got x={bad[0]}")


def reg_incomplete_beta(x, a: float, b: float):
    """Regularized incomplete beta I_x(a, b), elementwise over arrays x; a
    number gives a float.

    Cumulative mass of Beta(a, b) on [0, x], normalized by B(a, b).  Uses
    the direct continued fraction when x is below the symmetry threshold
    and the complementary expansion otherwise, which keeps both tails
    accurate without cancellation.  The prefactor comes from libm, point by
    point; where it underflows to 0 the value is 0 on the direct tail and 1
    on the complementary one, and no continued fraction is run.  A point
    whose continued fraction does not converge raises RuntimeError, at the
    first such point.
    """
    _check_unit(x)
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    out = (x == 1.0).astype(float)  # 0 at x = 0 and 1 at x = 1
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    x = x[inner]
    ln_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = np.array([math.exp(ln_norm + a * math.log(v) + b * math.log1p(-v)) for v in x.tolist()])
    low = x < (a + 1.0) / (a + b + 2.0)
    cf = np.zeros_like(x)  # where front is 0 the value is 0 (low) or 1, with no fraction run
    for tail, p, q, v in ((low, a, b, x), (~low, b, a, 1.0 - x)):
        tail = tail & (front != 0.0)
        if tail.any():
            cf[tail] = _beta_cf(p, q, v[tail])
    failed = np.flatnonzero(np.isnan(cf))
    if failed.size:
        i = failed[0]
        p, q, v = (a, b, x[i]) if low[i] else (b, a, 1.0 - x[i])  # the failed fraction's arguments
        raise RuntimeError(f"beta continued fraction failed for a={p}, b={q}, x={float(v)}")
    out[inner] = np.where(low, front * cf / a, 1.0 - front * cf / b)
    return float(out[0]) if shape == () else out.reshape(shape)
