"""Cost model for token dispatch on a two-tier cluster.

Devices live on nodes; links within a node are faster than links between
nodes.  All-to-All is modeled as D-1 serialized ring rotations where
round r lets device s exchange with device (s + r) mod D and costs the
worst pair in that round (latency plus bytes over the pair's bandwidth
class).  Rounds are evaluated a block of senders at a time, as per-round
maxima of the pairs' costs summed in round order; a maximum is exact in
any order, so that is bit for bit a loop over rounds.  The group-wise
variant sends only 1/g of each device's inter-node bytes (the rest is
reconstructed by an intra-node ring All-Gather across the g-device
group), trading slow-link volume for fast-link replication.

Bandwidths and latencies here are illustrative configuration, not
measurements; the CLI's default topology lives in :mod:`moelab.defaults`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

OVERLAP_RATIO = 0.5  # share of modeled compute that hides communication in compare_strategies
_BLOCK_PAIRS = 1 << 16  # sender-receiver pairs alltoall_cost holds per block of senders


@dataclass(frozen=True)
class ClusterTopology:
    """Two-tier device layout with per-tier bandwidth (bytes/s) and latency (s)."""

    n_nodes: int
    devices_per_node: int
    intra_bw: float
    inter_bw: float
    intra_latency: float
    inter_latency: float

    def __post_init__(self):
        if self.n_nodes < 1 or self.devices_per_node < 1:
            raise ValueError("topology needs at least one node and one device per node")
        if not self.intra_bw > self.inter_bw > 0:
            raise ValueError(
                f"expected intra_bw > inter_bw > 0, got intra={self.intra_bw}, "
                f"inter={self.inter_bw}"
            )
        if not (self.intra_latency >= 0 and self.inter_latency >= 0):  # NaN fails too
            raise ValueError("latencies must be >= 0")

    @property
    def total_devices(self) -> int:
        return self.n_nodes * self.devices_per_node

    def node_of(self, device) -> np.ndarray:
        return np.asarray(device, dtype=np.int64) // self.devices_per_node

    def check_group_size(self, g: int) -> None:
        """A tensor-parallel group is g consecutive devices of one node."""
        if g < 1 or self.devices_per_node % g != 0:
            raise ValueError(f"tp_group_size={g} must divide devices_per_node={self.devices_per_node}")


@dataclass(frozen=True)
class ExpertPlacement:
    """Maps each expert to the device (and thereby node) hosting it."""

    device_of_expert: tuple[int, ...]

    def __post_init__(self):
        if len(self.device_of_expert) == 0:
            raise ValueError("placement must cover at least one expert")

    @property
    def n_experts(self) -> int:
        return len(self.device_of_expert)

    def devices(self) -> np.ndarray:
        return np.asarray(self.device_of_expert, dtype=np.int64)

    def expert_nodes(self, topology: ClusterTopology) -> np.ndarray:
        devices = self.devices()
        if devices.max() >= topology.total_devices or devices.min() < 0:
            raise ValueError("placement references a device outside the topology")
        return topology.node_of(devices)


def round_robin_placement(n_experts: int, topology: ClusterTopology) -> ExpertPlacement:
    """Experts spread over devices in index order, wrapping if needed."""
    d = topology.total_devices
    return ExpertPlacement(tuple(int(e % d) for e in range(n_experts)))


@dataclass(frozen=True)
class CommPhase:
    """One exchange phase and the bytes it moves.

    For ``all_to_all`` ``volume`` is the D x D device-to-device byte
    matrix; for ``all_gather`` it is a length-D vector holding the bytes
    each device sends to its successor on its group's ring.
    """

    kind: str  # "all_to_all" or "all_gather"
    volume: np.ndarray

    @property
    def total_bytes(self) -> float:
        return float(self.volume.sum())


@dataclass(frozen=True)
class CommPlan:
    phases: tuple[CommPhase, ...]


def build_volume_matrix(outcome, placement: ExpertPlacement, token_bytes: int, source_map,
                        topology: ClusterTopology) -> np.ndarray:
    """Device-to-device dispatch bytes implied by a routing outcome.

    The matrix is D x D over the topology's D devices.  Entry (s, t)
    counts token_bytes for every served token whose source device is s and
    whose expert lives on device t.  Dropped tokens never travel.  The
    diagonal (token served where it originates) is kept; the cost model
    charges it nothing because ring rounds never pair a device with itself.
    """
    source = np.asarray(source_map, dtype=np.int64)
    expert = outcome.expert_of_token
    if source.shape != expert.shape:
        raise ValueError("source_map must assign a device to every token")
    devices = placement.devices()
    if expert.max() >= devices.shape[0]:
        raise ValueError(
            f"routing references expert {int(expert.max())} but placement "
            f"covers only {devices.shape[0]} experts"
        )
    n_dev = topology.total_devices
    if min(source.min(), devices.min()) < 0 or max(source.max(), devices.max()) >= n_dev:
        raise ValueError(f"a source or expert device lies outside the {n_dev} devices")
    keep = ~outcome.dropped
    dest = devices[expert[keep]]
    src = source[keep]
    volume = np.zeros((n_dev, n_dev))
    np.add.at(volume, (src, dest), float(token_bytes))
    return volume


def check_volume(volume, topology: ClusterTopology) -> np.ndarray:
    """The volume as a float D x D matrix of finite, non-negative bytes."""
    volume = np.asarray(volume, dtype=float)
    d = topology.total_devices
    if volume.shape != (d, d):
        raise ValueError(f"volume must be {d}x{d} for this topology, got {volume.shape}")
    if not (volume.min() >= 0 and volume.max() < np.inf):  # a NaN fails both comparisons
        raise ValueError("volumes must be finite and non-negative")
    return volume


def alltoall_cost(volume: np.ndarray, topology: ClusterTopology) -> float:
    """Ring-scheduled pairwise exchange cost in seconds.

    D-1 serialized rounds; in round r device s sends volume[s, (s+r) % D].
    Each round costs its slowest pair: latency(s,t) + bytes/bw(s,t).  With
    zero volume this degenerates to (D-1) times the worst round latency.

    Senders are costed a block of rows at a time (about 1.5 MB of working
    arrays for D up to 2**16), each round keeping a running maximum over
    its pairs, and the round costs are summed in round order.  That is bit
    for bit a loop over rounds: every pair's cost is the same IEEE
    expression, a maximum is exact in any order, and the sum keeps its
    order.
    """
    volume = check_volume(volume, topology)
    d, k = topology.total_devices, topology.devices_per_node
    rounds = np.arange(1, d)
    step = max(1, _BLOCK_PAIRS // d)
    worst = np.full(d - 1, -np.inf)
    for lo in range(0, d, step):
        block = volume[lo:lo + step]
        senders = np.arange(lo, lo + len(block))
        # pairs[i, r-1] = volume[s, (s+r) % d] for s = senders[i]: a window of the doubled row
        pairs = sliding_window_view(np.hstack([block, block]), d - 1, axis=1)[senders - lo, senders + 1]
        # (s+r) % d shares s's node iff the step stays in it or wraps past device d-1 back into it
        pos = (senders % k)[:, None]
        same = (rounds < k - pos) | (rounds >= d - pos)
        pairs /= np.where(same, topology.intra_bw, topology.inter_bw)
        pairs += np.where(same, topology.intra_latency, topology.inter_latency)
        np.maximum(worst, pairs.max(axis=0), out=worst)
        del pairs  # before the next block's gather, which would otherwise overlap it
    total = 0.0
    for cost in worst.tolist():  # in round order: np.sum's pairwise order could differ
        total += cost
    return total


def groupwise_alltoall_cost(
    volume: np.ndarray,
    topology: ClusterTopology,
    tp_group_size: int,
) -> tuple[float, CommPlan]:
    """Cost of the sharded exchange: thin inter-node All-to-All plus
    intra-node All-Gather.

    Each device sends only 1/g of its own inter-node bytes in phase one
    (its g-device group covers the rest); intra-node bytes are unchanged.
    Phase two runs a ring All-Gather inside every group so each member
    ends up with the group's full remote payload: per group,
    (g-1)/g * gathered bytes / intra_bw + (g-1) * intra_latency, groups in
    parallel.  With g = 1 both phases collapse to the plain cost exactly.
    """
    volume = check_volume(volume, topology)
    d = topology.total_devices
    g = tp_group_size
    topology.check_group_size(g)

    devices = np.arange(d)
    inter = topology.node_of(devices)[:, None] != topology.node_of(devices)[None, :]
    sharded = volume.copy()
    np.divide(sharded, g, out=sharded, where=inter)
    phase1_cost = alltoall_cost(sharded, topology)
    phases = [CommPhase(kind="all_to_all", volume=sharded)]

    phase2_cost = 0.0
    if g > 1:
        # consecutive devices within a node form a group: one row per group
        received = sharded.sum(axis=0, where=inter).reshape(-1, g)
        gathered = received.sum(axis=1)
        cost = (g - 1) / g * gathered / topology.intra_bw + (g - 1) * topology.intra_latency
        phase2_cost = float(cost.max())
        # each member's accumulated shards pass over its edge to the next
        # member; the shard originating at the edge's head never crosses it
        edges = gathered[:, None] - np.roll(received, -1, axis=1)
        phases.append(CommPhase(kind="all_gather", volume=edges.reshape(-1)))
    return phase1_cost + phase2_cost, CommPlan(phases=tuple(phases))


def locality_fraction(outcome, placement: ExpertPlacement, source_map, topology: ClusterTopology) -> float:
    """Share of served tokens whose expert lives on the token's source node."""
    source = np.asarray(source_map, dtype=np.int64)
    expert = outcome.expert_of_token
    if source.shape != expert.shape:
        raise ValueError("source_map must assign a device to every token")
    keep = ~outcome.dropped
    if not keep.any():
        return 0.0
    dest_node = placement.expert_nodes(topology)[expert[keep]]
    src_node = topology.node_of(source[keep])
    return float(np.mean(dest_node == src_node))


def compare_strategies(
    runs: dict,
    placement: ExpertPlacement,
    topology: ClusterTopology,
    token_bytes: int,
    tp_group_size: int = 8,
) -> list[dict]:
    """Model communication for the final assignment of each training run.

    ``runs`` maps a router name to an object exposing ``final_outcome``,
    ``source_device`` and ``modeled_compute_seconds`` (a toy-training
    run).  For each router the report carries plain and group-wise modeled
    seconds, the locality fraction, and the visible communication share of
    a modeled epoch, where visible = max(0, comm - OVERLAP_RATIO * compute); the overlap
    term is a deliberately coarse stand-in for interleaved execution.
    """
    rows = []
    for name, run in runs.items():
        outcome = run.final_outcome
        volume = build_volume_matrix(outcome, placement, token_bytes, run.source_device, topology)
        plain = alltoall_cost(volume, topology)
        grouped, _ = groupwise_alltoall_cost(volume, topology, tp_group_size)
        frac = locality_fraction(outcome, placement, run.source_device, topology)
        compute = run.modeled_compute_seconds
        visible = max(0.0, plain - OVERLAP_RATIO * compute)
        rows.append(
            {
                "router": name,
                "plain_alltoall_s": plain,
                "groupwise_alltoall_s": grouped,
                "locality_fraction": frac,
                "modeled_compute_s": compute,
                "visible_comm_s": visible,
                "comm_share": visible / (compute + visible) if compute + visible > 0 else 0.0,
            }
        )
    return rows
