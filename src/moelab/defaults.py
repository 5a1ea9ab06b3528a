"""The CLI's defaults.

The cluster numbers are declared configuration for the cost model, not
measurements of any real machine; the toy-training numbers are the
desk-scale calibration the shipped demos and acceptance checks run with.
Model constants, such as ``toymoe.DEVICE_FLOPS`` and
``commsim.OVERLAP_RATIO``, live with their models.
"""

from __future__ import annotations

from .commsim import ClusterTopology, ExpertPlacement, round_robin_placement
from .toymoe import TRAIN_LOSSES, SyntheticCorpusConfig

DEFAULT_SEED = 2

DEFAULT_TOPOLOGY = ClusterTopology(
    n_nodes=2,
    devices_per_node=8,
    intra_bw=100e9,
    inter_bw=25e9,
    intra_latency=10e-6,
    inter_latency=30e-6,
)

DEFAULT_N_EXPERTS = 16
DEFAULT_TOKEN_BYTES = 4096
DEFAULT_TP_GROUP_SIZE = 8

DEFAULT_CORPUS = SyntheticCorpusConfig(
    n_clusters=4,
    dim=32,
    tokens_per_cluster=1024,
    concentration=8.0,
    seed=DEFAULT_SEED,
)

DEFAULT_EPOCHS = 50
DEFAULT_LR = 1.0
DEFAULT_TRAIN_LOSSES = TRAIN_LOSSES  # train-toy's --alpha/--mu; perfbench/workloads.py reads it too


def default_placement(n_experts: int = DEFAULT_N_EXPERTS, topology: ClusterTopology = DEFAULT_TOPOLOGY) -> ExpertPlacement:
    return round_robin_placement(n_experts, topology)
