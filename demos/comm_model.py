"""Explore the two-tier communication cost model.

All-to-All is D-1 serialized ring rounds, each costing its slowest pair.
The group-wise variant ships only 1/g of each device's inter-node bytes
over the slow links and reconstructs the rest with an intra-node ring
All-Gather, so it wins once inter-node volume dominates.  Locality wins
unconditionally: moving a token's destination on-node never increases
the modeled cost.  Run:

    python demos/comm_model.py
"""

import numpy as np

from moelab import defaults
from moelab.commsim import (
    alltoall_cost,
    build_volume_matrix,
    groupwise_alltoall_cost,
    locality_fraction,
    round_robin_placement,
)
from moelab.router import RoutingOutcome

topo = defaults.DEFAULT_TOPOLOGY
D = topo.total_devices
placement = round_robin_placement(16, topo)
token_bytes = defaults.DEFAULT_TOKEN_BYTES

# --- a synthetic routed batch: uniform routing over 16 experts -------------

rng = np.random.default_rng(0)
T = 32_000
experts = rng.integers(0, 16, T)
source = rng.integers(0, D, T)
outcome = RoutingOutcome(expert_of_token=experts, probs=np.eye(16)[experts])
volume = build_volume_matrix(outcome, placement, token_bytes, source, topo)
print(f"Dispatch matrix: {volume.sum() / 2**20:.1f} MiB total, "
      f"{volume[topo.node_of(np.arange(D))[:, None] != topo.node_of(np.arange(D))[None, :]].sum() / volume.sum():.0%} inter-node")
print(f"Baseline locality fraction: {locality_fraction(outcome, placement, source, topo):.3f}")

print("\nPlain vs group-wise exchange as the group size grows:")
plain = alltoall_cost(volume, topo)
print(f"  plain all-to-all      : {plain * 1e6:9.1f} us")
for g in (1, 2, 4, 8):
    total, plan = groupwise_alltoall_cost(volume, topo, g)
    gathered = sum(p.total_bytes for p in plan.phases[1:])
    print(f"  group size {g}: total {total * 1e6:9.1f} us   "
          f"(all-gather replication {gathered / 2**20:6.1f} MiB)")

# --- what locality buys ------------------------------------------------------

print("\nRelocating remote tokens onto their source node, 2000 at a time:")
devices = placement.devices()
nodes = topo.node_of(devices)
for step in range(5):
    moved = 0
    while moved < 2000:
        t = int(rng.integers(0, T))
        src_node = int(topo.node_of(np.array([source[t]]))[0])
        cur = devices[experts[t]]
        if int(topo.node_of(np.array([cur]))[0]) == src_node:
            continue
        new_expert = int(rng.choice(np.flatnonzero(nodes == src_node)))
        volume[source[t], cur] -= token_bytes
        volume[source[t], devices[new_expert]] += token_bytes
        experts[t] = new_expert
        moved += 1
    frac = float(np.mean(topo.node_of(devices[experts]) == topo.node_of(source)))
    print(f"  locality {frac:.3f}: plain {alltoall_cost(volume, topo) * 1e6:8.1f} us, "
          f"grouped(8) {groupwise_alltoall_cost(volume, topo, 8)[0] * 1e6:8.1f} us")

print("\nCost never increases as traffic turns local; the slow inter-node")
print("links stop being the round bottleneck once enough volume moves on-node.")
