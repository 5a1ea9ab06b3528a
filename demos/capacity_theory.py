"""Walk through the expert-capacity theory and its numeric oracles.

The quantity driving everything is the probability that a uniform unit
token lands within angle arccos(delta) of a gating direction (both
symmetric caps count).  From it we get a lower bound on how many tokens
an expert must see per batch, in three forms: exact, erfc approximation,
and a looser exponential.  Run:

    python demos/capacity_theory.py
"""

import math

import numpy as np

from moelab.capacity import (
    CapacityTheoryInput,
    cap_area_identity_check,
    capacity_curve,
    ec_min,
    empirical_capacity,
    mc_p_delta,
    p_delta,
)

# --- the assignment probability and its Monte Carlo check ----------------

print("Two-cap assignment probability p(delta, d), analytic vs Monte Carlo:")
for delta, d in [(0.5, 8), (0.25, 16), (0.1, 64), (0.03, 4096)]:
    analytic = p_delta(CapacityTheoryInput(delta, d, 1))
    est, se = mc_p_delta(delta, d, 200_000, seed=0)
    print(
        f"  delta={delta:<5} d={d:<5} analytic={analytic:.6f}  "
        f"mc={est:.6f} (+/- {se:.6f}, {abs(est - analytic) / se:.1f} sigma)"
    )

# At delta ~ 1/sqrt(d) the probability settles near 0.3 for large d.
for d in (1024, 4096):
    delta = 1.0 / math.sqrt(d - 1.5)
    print(f"  delta=1/sqrt(d-3/2), d={d}: p = {p_delta(CapacityTheoryInput(delta, d, 1)):.4f}")

# --- the spherical-cap identity behind the formula ------------------------

print("\nCap-area identity (direct quadrature vs incomplete-beta form):")
for d, delta in [(3, 0.5), (8, 0.3), (20, 0.7)]:
    lhs, rhs, err = cap_area_identity_check(delta, d)
    print(f"  d={d:<3} delta={delta}: quadrature={lhs:.10f} beta={rhs:.10f} |diff|={err:.2e}")

# --- capacity bounds -------------------------------------------------------

print("\nCapacity lower bound at d=4096, n=16 (the erfc form always exceeds")
print("the exponential form; at finite d it also sits a hair above the exact value):")
for delta in (0.01, 0.03, 0.05, 0.08):
    res = ec_min(CapacityTheoryInput(delta, 4096, 16))
    print(
        f"  delta={delta:<5} exact={res.ec_min:10.4f}  erfc-form={res.erfc_bound:10.4f}  "
        f"exp-form={res.exp_bound:10.4f}  degenerate={res.degenerate}"
    )

print("\nCapacity grows steeply as the required angle shrinks (d=512, n=16):")
curve = capacity_curve(512, 16, np.linspace(0.05, 0.4, 8))
for delta, bound in zip(curve["delta"], curve["ec_min"]):
    print(f"  delta={delta:.3f}  ec_min={bound:12.2f}")

# --- the everyday ceiling formula used by schedulers ----------------------

print("\nEmpirical per-expert budget ceil(batch * factor / (parallel * experts)):")
for b, c, ep, n in [(32, 1.0, 16, 16), (256, 1.25, 16, 16), (4096, 2.0, 8, 16)]:
    print(f"  batch={b:<5} factor={c:<5} ep={ep:<3} n={n}: capacity {empirical_capacity(b, c, ep, n)}")
