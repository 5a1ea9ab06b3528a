"""Cost model for token dispatch on a two-tier cluster.

Devices live on nodes; links within a node are faster than links between
nodes.  All-to-All is modeled as D-1 serialized ring rotations where
round r lets device s exchange with device (s + r) mod D and costs the
worst pair in that round (latency plus bytes over the pair's bandwidth
class).  The class is fixed by r and the sender's position p in its node,
and cost is monotone in bytes, so each (p, r) cell costs its byte maximum.
The group-wise variant sends only 1/g of each device's inter-node bytes
(the rest is reconstructed by an intra-node ring All-Gather across the
g-device group), trading slow-link volume for fast-link replication.

Bandwidths and latencies here are illustrative configuration, not
measurements; the CLI's default topology lives in :mod:`moelab.defaults`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
from numpy.lib.stride_tricks import as_strided

OVERLAP_RATIO = 0.5  # share of modeled compute that hides communication in compare_strategies
DEVICE_FLOPS = 1e12  # illustrative per-device flop/s behind modeled compute time
_BLOCK_PAIRS = 1 << 15  # sender-receiver pairs per block of whole nodes; doubled, the scan holds 2x


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


def _round_maxima(volume: np.ndarray, topology: ClusterTopology) -> np.ndarray:
    """(k, D-1) table: at (p, r-1) the most bytes any sender at node position p sends in round r."""
    d, k = topology.total_devices, topology.devices_per_node
    rows = k * max(1, _BLOCK_PAIRS // (d * k))
    table = np.zeros((k, d - 1))
    for lo in range(0, d, rows):
        doubled = np.hstack([volume[lo:lo + rows]] * 2)
        step, col = sum(doubled.strides), doubled.itemsize  # row i holds round r at column lo+i+r
        diag = as_strided(doubled[:, lo + 1:], (len(doubled) // k, k, d - 1), (k * step, step, col))
        np.maximum(table, diag.max(axis=0), out=table)
    return table


def _ring_seconds(volume: np.ndarray, topology: ClusterTopology, g: int = 1) -> float:
    """The ring's seconds from its round maxima, inter-node bytes sent 1/g each."""
    d, k = topology.total_devices, topology.devices_per_node
    maxima, pos, rounds = _round_maxima(volume, topology), np.arange(k)[:, None], np.arange(1, d)
    # (p+r) stays on p's node iff the step stays in it or wraps past device d-1 back into it
    same = (rounds < k - pos) | (rounds >= d - pos)
    cost = np.where(same, maxima / topology.intra_bw + topology.intra_latency,
                    maxima / g / topology.inter_bw + topology.inter_latency)
    return reduce(add, cost.max(axis=0).tolist(), 0.0)  # in round order, unlike np.sum's pairwise sum


def alltoall_cost(volume: np.ndarray, topology: ClusterTopology) -> float:
    """Ring-scheduled pairwise exchange cost in seconds.

    D-1 serialized rounds; in round r device s sends volume[s, (s+r) % D].
    Each round costs its slowest pair: latency(s,t) + bytes/bw(s,t).  With
    zero volume this degenerates to (D-1) times the worst round latency.
    fl(fl(bytes / bw) + latency) is monotone in bytes, and each (position,
    round) cell holds one pair per node, all of one link class, so its byte
    maximum costs its slowest pair bit for bit.  Round costs, maxima over
    positions, sum in round order; the scan holds one block of whole nodes
    (at least k rows x 2D floats).
    """
    return _ring_seconds(check_volume(volume, topology), topology)


def groupwise_alltoall_cost(
    volume: np.ndarray,
    topology: ClusterTopology,
    tp_group_size: int,
) -> tuple[float, CommPlan]:
    """Cost of the sharded exchange: thin inter-node All-to-All plus
    intra-node All-Gather.

    Each device sends only 1/g of its own inter-node bytes in phase one (its
    g-device group covers the rest): the round maxima with inter-node cells
    divided by g, as fl(bytes / g) is monotone.  Phase two, a ring All-Gather
    in every group, gives each member the group's full remote payload: per
    group, (g-1)/g * gathered bytes / intra_bw + (g-1) * intra_latency, groups
    in parallel.  With g = 1 both phases collapse to the plain cost exactly.
    """
    volume = check_volume(volume, topology)
    g = tp_group_size
    topology.check_group_size(g)
    total = _ring_seconds(volume, topology, g)
    # the sharded copy feeds only the plan and phase two, so it is built after phase one
    nodes = topology.node_of(np.arange(topology.total_devices))
    inter = nodes[:, None] != nodes[None, :]
    sharded = volume.copy()
    np.divide(sharded, g, out=sharded, where=inter)
    phases = [CommPhase(kind="all_to_all", volume=sharded)]
    if g > 1:
        # consecutive devices within a node form a group: one row per group
        received = sharded.sum(axis=0, where=inter).reshape(-1, g)
        gathered = received.sum(axis=1)
        cost = (g - 1) / g * gathered / topology.intra_bw + (g - 1) * topology.intra_latency
        total += float(cost.max())
        # each member's accumulated shards pass over its edge to the next
        # member; the shard originating at the edge's head never crosses it
        edges = gathered[:, None] - np.roll(received, -1, axis=1)
        phases.append(CommPhase(kind="all_gather", volume=edges.reshape(-1)))
    return total, CommPlan(phases=tuple(phases))


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


def flops_per_served_token(dim: int, hidden: int) -> int:
    """Expert work per served token; independent of the expert count."""
    return 4 * dim * hidden + hidden + dim


def forward_flops(outcome, dim: int, hidden: int) -> int:
    """Expert work of an outcome's served tokens; dropped tokens cost nothing."""
    return int((~outcome.dropped).sum()) * flops_per_served_token(dim, hidden)


def compare_strategies(
    runs: dict,
    placement: ExpertPlacement,
    topology: ClusterTopology,
    token_bytes: int,
    tp_group_size: int = 8,
) -> dict[str, list[float]]:
    """Model one step of each training run at its final assignment.

    ``runs`` maps a router name to an object exposing ``final_outcome``,
    ``source_device`` and ``params["w_in"]`` (a toy-training run; the
    stacked weights give the experts' hidden width and dim).  Returns
    columns, one entry per run in order: plain and group-wise All-to-All
    seconds, the compute (the run's :func:`forward_flops` spread evenly
    over the devices at DEVICE_FLOPS each), the visible communication
    max(0, plain - OVERLAP_RATIO * compute), a deliberately coarse stand-in
    for interleaved execution, and its share of compute plus visible comm.
    """
    columns = {name: [] for name in ("plain_alltoall_s", "groupwise_alltoall_s", "modeled_compute_s",
                                     "visible_comm_s", "comm_share")}
    for run in runs.values():
        volume = build_volume_matrix(run.final_outcome, placement, token_bytes, run.source_device, topology)
        plain = alltoall_cost(volume, topology)
        grouped, _ = groupwise_alltoall_cost(volume, topology, tp_group_size)
        hidden, dim = run.params["w_in"].shape[1:]
        compute = forward_flops(run.final_outcome, dim, hidden) / (DEVICE_FLOPS * topology.total_devices)
        visible = max(0.0, plain - OVERLAP_RATIO * compute)
        share = visible / (compute + visible) if compute + visible > 0 else 0.0
        for name, value in zip(columns, (plain, grouped, compute, visible, share)):
            columns[name].append(value)
    return columns
