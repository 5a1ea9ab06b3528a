"""moelab: a desk-scale workbench for locality-aware mixture-of-experts
routing.

Modules by concern:

* :mod:`moelab.router`   - the one routing core: block-orthogonal gating,
  top-1 routing into a :class:`RoutingOutcome` (probabilities,
  assignment, gate, ``f`` and ``P``), capacity enforcement, hash and
  dense baselines.
* :mod:`moelab.losses`   - load-balance, locality (KL) and cross-entropy
  losses, with analytic gradients and a finite-difference checker.
* :mod:`moelab.special`  - erf/erfc and the regularized incomplete beta
  function, implemented in-repo.
* :mod:`moelab.capacity` - expert-capacity theory (assignment probability,
  capacity lower bound) plus Monte Carlo and quadrature oracles.
* :mod:`moelab.toymoe`   - a trainable toy MoE over synthetic clustered
  corpora comparing hash / switch / locality routing; training and
  :func:`moe_forward` consume the router's outcomes.
* :mod:`moelab.commsim`  - two-tier cluster All-to-All / All-Gather cost
  model and the group-wise exchange.
* :mod:`moelab.cli`      - the ``moelab`` command-line entry point.
"""

__version__ = "0.1.0"

from .capacity import (
    CapacityTheoryInput,
    CapacityTheoryResult,
    SphereSampleConfig,
    cap_area_identity_check,
    capacity_curve,
    cosine_histograms,
    ec_min,
    empirical_capacity,
    mc_assignment_fractions,
    mc_p_delta,
    p_delta,
    sample_unit_sphere,
)
from .commsim import (
    ClusterTopology,
    CommPhase,
    CommPlan,
    ExpertPlacement,
    alltoall_cost,
    build_volume_matrix,
    compare_strategies,
    groupwise_alltoall_cost,
    locality_fraction,
    round_robin_placement,
)
from .losses import (
    LossConfig,
    aux_loss,
    aux_loss_grad_p,
    cross_entropy,
    cross_entropy_grad,
    grad_check,
    locality_loss,
    locality_loss_grad,
    make_local_target,
    mean_cross_entropy,
)
from .router import (
    RoutingOutcome,
    TokenBatch,
    apply_capacity,
    build_block_gating,
    fnv1a64,
    gate_scores,
    hash_route,
    route_top1,
    softmax,
    softmax_backward,
    switch_route,
)
from .toymoe import (
    ExpertParams,
    SyntheticCorpusConfig,
    TrainRecord,
    TrainRun,
    TrainingDiverged,
    assignment_report,
    entropy,
    flops_per_served_token,
    forward_flops,
    gelu,
    gelu_grad,
    make_synthetic_corpus,
    moe_forward,
    train,
)
