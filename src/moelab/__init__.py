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
* :mod:`moelab.verify`   - the oracle suites behind ``moelab verify``.
* :mod:`moelab.defaults` - the CLI's defaults.
* :mod:`moelab.cli`      - the ``moelab`` command-line entry point.

Callers import from these modules; ``import moelab`` loads none of them.
"""

__version__ = "0.1.0"
