"""Train the toy MoE with all three routers and compare load dynamics.

The corpus is four spherical clusters; each device holds a contiguous
shard, so the two simulated nodes see different cluster mixes.  The
balanced-and-local configuration should end up using every expert while
keeping almost all traffic on-node; the plain learnable router tends to
concentrate; the hash router is exactly balanced but learns nothing
about routing.  Run:

    python demos/toy_training.py
"""

import math

from moelab import defaults
from moelab.toymoe import compare_routers, entropy, make_synthetic_corpus

corpus = make_synthetic_corpus(defaults.DEFAULT_CORPUS)
n = defaults.DEFAULT_N_EXPERTS
# hash and switch train with no balance or locality penalty, loc with both
runs = compare_routers(corpus, n, defaults.default_placement(), defaults.DEFAULT_TOPOLOGY,
                       epochs=defaults.DEFAULT_EPOCHS, seed=defaults.DEFAULT_SEED)
for kind, run in runs.items():
    last = run.records[-1]
    print(f"{kind:7s} gradient check max rel err {run.probe_grad_rel_err:.1e}")
    print(f"        final counts {[int(c) for c in last.counts]}")
    print(
        f"        entropy {entropy(last.f):.3f} (uniform would be {math.log(n):.3f}), "
        f"locality {last.locality_fraction:.3f}, mean cross-entropy {last.l_cross_mean:.3f}"
    )

print("\nEntropy of the assignment over training (every 10th epoch):")
for kind, run in runs.items():
    trace = [f"{entropy(r.f):.2f}" for r in run.records[::10]]
    print(f"  {kind:7s} {' -> '.join(trace)}")

print("\nLocality fraction over training (every 10th epoch):")
for kind, run in runs.items():
    trace = [f"{r.locality_fraction:.2f}" for r in run.records[::10]]
    print(f"  {kind:7s} {' -> '.join(trace)}")

unused = int((runs["switch"].records[-1].counts == 0).sum())
print(
    f"\nWithout any balance penalty the learnable router leaves {unused} expert(s) "
    "starved or concentrates hard; the penalized run spreads across all "
    f"{n} experts while routing almost everything on-node."
)
