"""Independent numeric oracles used across the test suite.

Everything here is deliberately written against the definitions (direct
quadrature of the defining integrals, explicit loops) rather than against
the library code it checks.  Integrable endpoint singularities are removed
by power substitutions before applying composite Gauss-Legendre rules.
"""

import csv
import ctypes
import math
import tracemalloc
from pathlib import Path

import numpy as np


def gl_integral(f, a, b, n_nodes=240, panels=4):
    """Composite Gauss-Legendre quadrature of f on [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    total = 0.0
    edges = np.linspace(a, b, panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        total += half * np.sum(weights * f(mid + half * nodes))
    return float(total)


def erf_quad(x):
    """erf by direct quadrature of its defining integral."""
    if x < 0:
        return -erf_quad(-x)
    if x == 0:
        return 0.0
    return 2.0 / math.sqrt(math.pi) * gl_integral(lambda t: np.exp(-t * t), 0.0, x)


def erfc_quad(x):
    return 1.0 - erf_quad(x)


def cody_index_set_reference(x):
    """(erf(x), erfc(x)) from Cody's coefficient tables, evaluated straight
    through: each interval of y = |x| on its own index set, every rational
    form written out with fresh temporaries in Cody's operation order."""
    from moelab import special as s

    def rational(t, p, q):
        num, den = p[-1] * t, t
        for a, b in zip(p[: len(q) - 1], q[:-1]):
            num = (num + a) * t
            den = (den + b) * t
        return num + p[len(q) - 1], den + q[-1]

    def exp_neg_sq(y, frac):
        ysq = np.floor(y * 16.0) / 16.0
        delta = (y - ysq) * (y + ysq)
        return np.exp(-ysq * ysq) * np.exp(-delta) * frac

    x = np.asarray(x, dtype=float).ravel()
    y = np.abs(x)
    out = np.zeros(y.shape)  # erfc stays 0 beyond 26.543
    small = y <= s._ERF_SMALL
    t = y[small]
    num, den = rational(t * t, s._ERF_A, s._ERF_B)
    out[small] = t * (num / den)
    rest = np.flatnonzero(~small)
    mid = rest[~(y[rest] > s._ERFC_MID)]  # NaN falls here
    t = y[mid]
    num, den = rational(t, s._ERFC_C, s._ERFC_D)
    out[mid] = exp_neg_sq(t, num / den)
    large = rest[(y[rest] > s._ERFC_MID) & (y[rest] <= s._ERFC_XBIG)]
    t = y[large]
    z = 1.0 / (t * t)
    num, den = rational(z, s._ERFC_P, s._ERFC_Q)
    out[large] = exp_neg_sq(t, (s._SQRT_PI_INV - z * num / den) / t)

    erf = out.copy()
    erf[rest] = 1.0 - erf[rest]
    erf = np.copysign(erf, x)
    erfc = out.copy()
    erfc[small] = 1.0 - erfc[small]
    neg = x < 0.0
    erfc[neg] = 2.0 - erfc[neg]
    return erf, erfc


def _float_beta_cf(a, b, x):
    """Continued fraction for the incomplete beta function (modified Lentz),
    one float at a time, with the kernel's constants read at call time."""
    from moelab import special as s

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < s._FPMIN:
        d = s._FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, s._CF_ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < s._FPMIN:
            d = s._FPMIN
        c = 1.0 + aa / c
        if abs(c) < s._FPMIN:
            c = s._FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < s._FPMIN:
            d = s._FPMIN
        c = 1.0 + aa / c
        if abs(c) < s._FPMIN:
            c = s._FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < s._CF_EPS:
            return h
    raise RuntimeError(f"beta continued fraction failed for a={a}, b={b}, x={x}")


def float_reg_incomplete_beta(x, a, b):
    """I_x(a, b) for one number x, in float arithmetic: the straight-line
    loop the array kernel must match bit for bit, errors included."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got x={x}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    low = x < (a + 1.0) / (a + b + 2.0)
    if front == 0.0:  # the tail's limit; no continued fraction is run
        return 0.0 if low else 1.0
    if low:
        return front * _float_beta_cf(a, b, x) / a
    return 1.0 - front * _float_beta_cf(b, a, 1.0 - x) / b


def float_reg_incomplete_beta_complement(x, a, b):
    """1 - I_x(a, b) for one number x, as I_{1-x}(b, a) in float arithmetic."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got x={x}")
    return float_reg_incomplete_beta(1.0 - x, b, a)


def reg_beta_quad(x, a, b):
    """I_x(a, b) by quadrature of the defining integral.

    Substituting t = sin(theta)^2 turns t^(a-1) (1-t)^(b-1) dt into
    2 sin^(2a-1) cos^(2b-1) d(theta), smooth at both endpoints for
    a, b >= 1/2; the symmetry flip keeps the upper tail conditioned.
    """
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > 0.5:
        return 1.0 - reg_beta_quad(1.0 - x, b, a)
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    integral = 2.0 * gl_integral(
        lambda th: np.sin(th) ** (2.0 * a - 1.0) * np.cos(th) ** (2.0 * b - 1.0),
        0.0,
        math.asin(math.sqrt(x)),
    )
    return integral / math.exp(ln_beta)


def fnv1a64_reference(value):
    """Byte-at-a-time FNV-1a over the 8-byte little-endian encoding."""
    h = 0xCBF29CE484222325
    for byte in int(value).to_bytes(8, "little", signed=False):
        h ^= byte
        h = (h * 0x100000001B3) % (1 << 64)
    return h


def softmax_reference(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def fresh_array_softmax(scores):
    """Row-wise softmax in one fresh array per step: shift, exponentiate,
    divide.  The bitwise reference for ``router.softmax``."""
    scores = np.asarray(scores, dtype=float)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def fresh_array_gate_scores(tokens, weights, noise_std, seed):
    """relu(tokens @ weights.T + noise) with a fresh array per step: the
    bitwise reference for ``router.gate_scores``."""
    scores = tokens @ np.asarray(weights, dtype=float).T
    if noise_std > 0:
        scores = scores + np.random.default_rng(seed).normal(0.0, noise_std, size=scores.shape)
    return np.maximum(scores, 0.0)


def straight_line_moe_forward(tokens, expert_of_token, gate, dropped, w_in, w_out):
    """Token-by-token expert mixing with explicit loops and libm erf, over
    the stacked weights w_in (n, h, d) and w_out (n, d, h)."""
    t, d = tokens.shape
    out = np.empty((t, d))
    for m in range(t):
        if dropped[m]:
            out[m] = tokens[m]
            continue
        e = expert_of_token[m]
        hidden = []
        for i in range(w_in.shape[1]):
            z = sum(w_in[e, i, j] * tokens[m, j] for j in range(d))
            hidden.append(z * 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
        for j in range(d):
            out[m, j] = gate[m] * sum(
                w_out[e, j, i] * hidden[i] for i in range(len(hidden))
            )
    return out


def ring_alltoall_reference(volume, n_nodes, devices_per_node,
                            intra_bw, inter_bw, intra_lat, inter_lat):
    """Straight-line evaluation of the ring-scheduled pairwise exchange."""
    d = n_nodes * devices_per_node
    total = 0.0
    for r in range(1, d):
        worst = 0.0
        for s in range(d):
            t = (s + r) % d
            if s // devices_per_node == t // devices_per_node:
                cost = intra_lat + volume[s][t] / intra_bw
            else:
                cost = inter_lat + volume[s][t] / inter_bw
            worst = max(worst, cost)
        total += worst
    return total


def ring_cost_reference(volume, topology):
    """The ring All-to-All one round at a time, with numpy, in the exact
    floating-point operations of the cost model: the bitwise reference."""
    d = topology.total_devices
    senders = np.arange(d)
    total = 0.0
    for r in range(1, d):
        receivers = (senders + r) % d
        same = topology.node_of(senders) == topology.node_of(receivers)
        lat = np.where(same, topology.intra_latency, topology.inter_latency)
        bw = np.where(same, topology.intra_bw, topology.inter_bw)
        total += float((lat + volume[senders, receivers] / bw).max())
    return total


def groupwise_cost_reference(volume, topology, g):
    """(total seconds, phase volumes) of the group-wise exchange, built from
    whole-matrix np.where copies and ``ring_cost_reference``."""
    d = topology.total_devices
    devices = np.arange(d)
    inter = topology.node_of(devices)[:, None] != topology.node_of(devices)[None, :]
    sharded = np.where(inter, volume / g, volume)
    total = ring_cost_reference(sharded, topology)
    phases = [sharded]
    if g > 1:
        received = np.where(inter, sharded, 0.0).sum(axis=0).reshape(-1, g)
        gathered = received.sum(axis=1)
        cost = (g - 1) / g * gathered / topology.intra_bw + (g - 1) * topology.intra_latency
        total += float(cost.max())
        phases.append((gathered[:, None] - np.roll(received, -1, axis=1)).reshape(-1))
    return total, phases


def ring_allgather_edges_reference(volume, n_nodes, devices_per_node, g):
    """Straight-line All-Gather ring bytes of the group-wise exchange.

    Each device receives 1/g of every inter-node byte addressed to it; in
    its g-device group (consecutive device ids) member i sends to member
    i+1 (mod g) every gathered shard except the one originating at that
    successor.
    """
    d = n_nodes * devices_per_node
    received = [0.0] * d
    for s in range(d):
        for t in range(d):
            if s // devices_per_node != t // devices_per_node:
                received[t] += volume[s][t] / g
    edges = [0.0] * d
    for base in range(0, d, g):
        members = list(range(base, base + g))
        for i, m in enumerate(members):
            nxt = members[(i + 1) % g]
            edges[m] = sum(received[k] for k in members if k != nxt)
    return edges


# One-shot sphere Monte Carlo: each whole sample is drawn, normalized and
# reduced at once, the straight-line form of capacity's block-streamed code.

def one_shot_sphere(dim, n_samples, seed):
    raw = np.random.default_rng(seed).standard_normal((n_samples, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def one_shot_p_delta(delta, dim, n_samples, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n_samples)
    rest = rng.chisquare(dim - 1, n_samples)
    cos = g / np.sqrt(g * g + rest)
    est = float(np.mean(np.abs(cos) >= delta))
    return est, math.sqrt(est * (1.0 - est) / n_samples)


def one_shot_assignment_fractions(weights, n_samples, seed):
    tokens = one_shot_sphere(weights.shape[1], n_samples, seed)
    assign = np.argmax(tokens @ weights.T, axis=1)
    return np.bincount(assign, minlength=weights.shape[0]) / n_samples


def one_shot_cosine_histograms(tokens, expert_of_token, weights, per_expert, edges):
    """(pair_counts, routed_counts, nonrouted_counts) over the first
    ``per_expert`` tokens of each expert, from one normalized copy."""
    n, n_bins = weights.shape[0], edges.size - 1
    x = tokens / np.linalg.norm(tokens, axis=1, keepdims=True)
    groups = [x[np.flatnonzero(expert_of_token == i)[:per_expert]] for i in range(n)]
    pair = np.zeros((n, n, n_bins), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            cos = np.clip(groups[i] @ groups[j].T, -1.0, 1.0)
            vals = cos[np.triu_indices(len(groups[i]), k=1)] if i == j else cos.ravel()
            pair[i, j] = pair[j, i] = np.histogram(vals, bins=edges)[0]
    wn = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    cos_w = np.clip(x @ wn.T, -1.0, 1.0)
    routed = np.stack([np.histogram(cos_w[expert_of_token == i, i], bins=edges)[0] for i in range(n)])
    other = np.stack([np.histogram(cos_w[expert_of_token != i, i], bins=edges)[0] for i in range(n)])
    return pair, routed, other


def per_point_capacity_curve(dim, n, grid):
    """(delta, p_delta, ec_min, erfc_bound, exp_bound, degenerate, unbounded)
    for each delta of the grid, one float evaluation at a time: the capacity
    bound's formulas written out over the float incomplete beta and the
    index-set erfc above."""
    rows = []
    for delta in np.asarray(grid, dtype=float).tolist():
        p = float_reg_incomplete_beta_complement(delta * delta, 0.5, (dim - 1) / 2.0)
        y2 = delta * delta * dim / (2.0 - delta * delta)
        y = math.sqrt(y2)
        e = float(cody_index_set_reference(y)[1][0])
        try:
            exp_bound = math.exp(y2) / n
        except OverflowError:
            exp_bound = math.inf
        erfc_bound = math.inf if e == 0.0 else 1.0 / (n * e)
        if 0.0 < y and math.isfinite(erfc_bound) and math.isfinite(exp_bound) and not erfc_bound > exp_bound:
            raise RuntimeError(f"erfc-form bound {erfc_bound} not above exp-form {exp_bound}")
        rows.append((delta, p, math.inf if p == 0.0 else 1.0 / (n * p), erfc_bound, exp_bound,
                     n * p > 1.0, p == 0.0))
    return rows


def per_point_cap_identity(delta, dim):
    """(lhs, rhs, abs_err) of the two-cap identity at one float delta, in
    float arithmetic: a 160-node Gauss-Legendre quadrature of sin^(d-2) over
    [0, acos(delta)] against the float incomplete beta above."""
    nodes, weights = np.polynomial.legendre.leggauss(160)
    phi = math.acos(delta)
    mid, half = 0.5 * phi, 0.5 * phi
    integral = float(half * np.sum(weights * np.sin(mid + half * nodes) ** (dim - 2)))
    ratio = math.exp(math.lgamma(dim / 2.0) - math.lgamma((dim - 1) / 2.0)) / math.sqrt(math.pi)
    lhs = 2.0 * ratio * integral
    rhs = float_reg_incomplete_beta_complement(delta * delta, 0.5, (dim - 1) / 2.0)
    return lhs, rhs, abs(lhs - rhs)


def sequential_compare_routers(corpus, placement, topology, *, epochs, seed):
    """The paired runs as one loop in this process: each router of
    COMPARE_LOSSES, in order, trained with its losses over the placement's experts."""
    from moelab import toymoe

    return {kind: toymoe.train(corpus, kind, placement.n_experts, placement, topology,
                               epochs=epochs, loss_cfg=loss_cfg, seed=seed)
            for kind, loss_cfg in toymoe.COMPARE_LOSSES.items()}


def rowwise_csv(path, rows):
    """Write rows to a CSV file one cell at a time: a float (Python or numpy)
    as its repr, a bool and an int by value, anything else by str."""

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value))
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return str(value)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def numpy_blas():
    """(name, version) of the BLAS numpy was built with, None if unknown."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return None
    return blas.get("name"), blas.get("version")


def openblas_kernel():
    """The kernel the loaded OpenBLAS picked at run time (``SkylakeX``,
    ``Haswell``, ...; ``OPENBLAS_CORETYPE`` overrides the CPU's pick), None
    if no loaded OpenBLAS reports one.  numpy's build configuration names
    only the build's baseline, not this kernel."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("openblas_get_corename", "scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def traced_peak(fn):
    """(result, peak bytes traced while fn runs), after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
