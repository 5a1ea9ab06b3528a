"""Show the three routers side by side on uniform sphere tokens.

Block-orthogonal gating scores each expert by the mean of one coordinate
block, so uniformly distributed tokens split evenly across experts by
symmetry.  The hash baseline is exactly balanced on consecutive ids, and
capacity enforcement drops overflow tokens in batch order.  Run:

    python demos/routing_balance.py
"""

import numpy as np

from moelab.capacity import SphereSampleConfig, cosine_histograms, sample_unit_sphere
from moelab.router import apply_capacity, build_block_gating, gate_scores, hash_route, route_top1

N_EXPERTS, DIM, TOKENS = 8, 64, 50_000

weights = build_block_gating(N_EXPERTS, DIM)
print("Gating matrix: rows are disjoint blocks of value n/d,")
print(f"  row norms  : {np.linalg.norm(weights, axis=1).round(6)}")
print(f"  pairwise dot products all zero: {np.all((weights @ weights.T - np.diag(np.diag(weights @ weights.T))) == 0)}")

batch = sample_unit_sphere(SphereSampleConfig(dim=DIM, n_samples=TOKENS, seed=0))

print("\nAssignment fractions over uniform sphere tokens (target 1/8 = 0.125):")
scored = route_top1(gate_scores(batch.tokens, weights))
print(f"  block gating : {scored.f.round(4)}")

hashed = hash_route(batch.token_ids, N_EXPERTS)
print(f"  hash         : {hashed.f.round(4)}")

rng = np.random.default_rng(1)
dense = route_top1(batch.tokens @ (rng.standard_normal((N_EXPERTS, DIM)) / np.sqrt(DIM)).T)
print(f"  random dense : {dense.f.round(4)}   (no symmetry guarantee)")

# --- capacity enforcement ---------------------------------------------------

cap = 5000  # below the ~6250 tokens per expert, so some must drop
capped = apply_capacity(scored, cap)
print(f"\nWith per-expert capacity {cap}:")
print(f"  served per expert: {capped.served_counts()}")
print(f"  dropped          : {int(capped.dropped.sum())} of {TOKENS}")
print(f"  f is still accounted pre-drop: sum(f) = {capped.f.sum():.12f}")

# --- cosine structure -------------------------------------------------------

hist = cosine_histograms([(batch.tokens, scored.expert_of_token)], weights)
mids = 0.5 * (hist.bin_edges[:-1] + hist.bin_edges[1:])
routed = hist.routed_counts.sum(axis=0)
other = hist.nonrouted_counts.sum(axis=0)
print("\nMean cosine between a token and a gating row:")
print(f"  rows the token routed to  : {float((routed * mids).sum() / routed.sum()):+.4f}")
print(f"  rows it was not routed to : {float((other * mids).sum() / other.sum()):+.4f}")
print("(tokens sit closer to the gating direction that wins them)")
