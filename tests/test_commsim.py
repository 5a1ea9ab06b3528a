import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moelab import commsim
from moelab.commsim import (
    ClusterTopology,
    ExpertPlacement,
    alltoall_cost,
    build_volume_matrix,
    compare_strategies,
    flops_per_served_token,
    forward_flops,
    groupwise_alltoall_cost,
    locality_fraction,
    round_robin_placement,
)
from moelab.router import RoutingOutcome, hash_route
from moelab.toymoe import SyntheticCorpusConfig, make_synthetic_corpus, train

from oracles import (
    groupwise_cost_reference,
    ring_allgather_edges_reference,
    ring_alltoall_reference,
    ring_cost_reference,
    traced_peak,
)

TOPO = ClusterTopology(
    n_nodes=2, devices_per_node=8,
    intra_bw=100e9, inter_bw=25e9,
    intra_latency=10e-6, inter_latency=30e-6,
)
D = TOPO.total_devices


def outcome_for(experts, dropped=None, n_experts=None):
    experts = np.asarray(experts, dtype=np.int64)
    n = n_experts or int(experts.max()) + 1
    return RoutingOutcome(
        expert_of_token=experts,
        probs=np.eye(n)[experts],
        dropped=None if dropped is None else np.asarray(dropped, bool),
    )


class TestTopology:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterTopology(2, 8, 10e9, 20e9, 1e-6, 1e-6)  # intra slower than inter
        with pytest.raises(ValueError):
            ClusterTopology(0, 8, 100e9, 25e9, 1e-6, 1e-6)
        with pytest.raises(ValueError):
            ClusterTopology(2, 8, 100e9, 25e9, -1e-6, 1e-6)

    def test_nan_latency_is_rejected_and_infinite_values_are_kept(self):
        for latencies in ((math.nan, 1e-6), (1e-6, math.nan)):
            with pytest.raises(ValueError, match="latencies must be >= 0"):
                ClusterTopology(2, 8, 100e9, 25e9, *latencies)
        topo = ClusterTopology(2, 8, math.inf, 25e9, math.inf, math.inf)
        assert (topo.intra_bw, topo.intra_latency, topo.inter_latency) == (math.inf,) * 3

    def test_node_lookup(self):
        assert list(TOPO.node_of(np.array([0, 7, 8, 15]))) == [0, 0, 1, 1]


class TestVolumeMatrix:
    def test_all_local_gives_zero_off_diagonal(self):
        placement = round_robin_placement(16, TOPO)
        # token i originates on device i and routes to the expert hosted there
        out = outcome_for(np.arange(16))
        vol = build_volume_matrix(out, placement, 4096, np.arange(16), TOPO)
        assert np.array_equal(np.diag(np.diag(vol)), vol)

    def test_single_token_entry(self):
        placement = round_robin_placement(16, TOPO)
        out = outcome_for([3], n_experts=16)
        vol = build_volume_matrix(out, placement, 4096, np.array([0]), TOPO)
        expected = np.zeros((16, 16))
        expected[0, 3] = 4096.0
        assert np.array_equal(vol, expected)

    def test_column_sums_match_served_counts(self):
        rng = np.random.default_rng(0)
        placement = round_robin_placement(16, TOPO)
        experts = rng.integers(0, 16, 4000)
        dropped = rng.random(4000) < 0.1
        out = outcome_for(experts, dropped=dropped)
        src = rng.integers(0, D, 4000)
        vol = build_volume_matrix(out, placement, 4096, src, TOPO)
        served = out.served_counts()
        # experts map one-to-one onto devices here
        assert np.array_equal(vol.sum(axis=0), served * 4096.0)

    def test_matrix_is_sized_by_the_topology(self):
        # 8 experts on devices 0..7 and every token on device 0 leave
        # devices 8..15 idle; the matrix still covers all 16
        placement = round_robin_placement(8, TOPO)
        out = outcome_for(np.arange(8).repeat(4))
        vol = build_volume_matrix(out, placement, 4096, np.zeros(32, dtype=np.int64), TOPO)
        assert vol.shape == (D, D)
        assert vol[0, :8].tolist() == [4 * 4096.0] * 8
        assert alltoall_cost(vol, TOPO) > 0

    def test_device_outside_topology_raises(self):
        placement = round_robin_placement(16, TOPO)
        out = outcome_for([0], n_experts=16)
        with pytest.raises(ValueError, match="outside"):
            build_volume_matrix(out, placement, 4096, np.array([D]), TOPO)

    def test_unplaced_expert_raises(self):
        placement = ExpertPlacement((0, 1))
        out = outcome_for([5], n_experts=6)
        with pytest.raises(ValueError, match="placement"):
            build_volume_matrix(out, placement, 128, np.array([0]), TOPO)


class TestAllToAllCost:
    def test_zero_volume_is_latency_floor(self):
        cost = alltoall_cost(np.zeros((D, D)), TOPO)
        assert cost == pytest.approx((D - 1) * TOPO.inter_latency, rel=1e-12)

    def test_doubling_volume_with_zero_latency_doubles_cost(self):
        topo = ClusterTopology(2, 8, 100e9, 25e9, 0.0, 0.0)
        rng = np.random.default_rng(1)
        vol = rng.uniform(0, 1e6, (D, D))
        assert alltoall_cost(2 * vol, topo) == pytest.approx(
            2 * alltoall_cost(vol, topo), rel=1e-12
        )

    def test_uniform_megabyte_matches_reference_evaluator(self):
        vol = np.full((D, D), float(2**20))
        np.fill_diagonal(vol, 0.0)
        expected = ring_alltoall_reference(
            vol, 2, 8, 100e9, 25e9, 10e-6, 30e-6
        )
        assert alltoall_cost(vol, TOPO) == pytest.approx(expected, rel=1e-12)

    def test_random_matrix_matches_reference_evaluator(self):
        rng = np.random.default_rng(2)
        vol = rng.uniform(0, 5e6, (D, D))
        expected = ring_alltoall_reference(vol, 2, 8, 100e9, 25e9, 10e-6, 30e-6)
        assert alltoall_cost(vol, TOPO) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_volume_and_latency(self):
        rng = np.random.default_rng(3)
        vol = rng.uniform(0, 1e6, (D, D))
        base = alltoall_cost(vol, TOPO)
        for _ in range(50):
            bump = vol.copy()
            s, t = rng.integers(0, D, 2)
            bump[s, t] += rng.uniform(0, 1e7)
            assert alltoall_cost(bump, TOPO) >= base - 1e-18
        slower = ClusterTopology(2, 8, 100e9, 25e9, 20e-6, 60e-6)
        assert alltoall_cost(vol, slower) >= base

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            alltoall_cost(np.zeros((3, 3)), TOPO)
        with pytest.raises(ValueError):
            alltoall_cost(np.full((D, D), -1.0), TOPO)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_both_costs_reject_non_finite_or_negative_volumes(self, bad):
        vol = np.zeros((D, D))
        vol[2, 9] = bad
        with pytest.raises(ValueError, match="volumes must be finite and non-negative"):
            alltoall_cost(vol, TOPO)
        with pytest.raises(ValueError, match="volumes must be finite and non-negative"):
            groupwise_alltoall_cost(vol, TOPO, 8)
        with pytest.raises(ValueError, match="volume must be 16x16 for this topology, got \\(8, 8\\)"):
            groupwise_alltoall_cost(np.zeros((8, 8)), TOPO, 8)


class TestGroupwise:
    def test_degenerate_group_equals_plain(self):
        rng = np.random.default_rng(4)
        vol = rng.uniform(0, 4e6, (D, D))
        total, plan = groupwise_alltoall_cost(vol, TOPO, 1)
        assert total == alltoall_cost(vol, TOPO)
        assert len(plan.phases) == 1

    def test_heavy_inter_node_volume_benefits(self):
        # uniform all-pairs traffic is mostly inter-node on two nodes
        vol = np.full((D, D), 4e6)
        np.fill_diagonal(vol, 0.0)
        total, _ = groupwise_alltoall_cost(vol, TOPO, 8)
        assert total < alltoall_cost(vol, TOPO)

    def test_zero_inter_node_volume_adds_only_latency_term(self):
        rng = np.random.default_rng(5)
        vol = np.zeros((D, D))
        for node in range(2):
            base = node * 8
            block = rng.uniform(0, 2e6, (8, 8))
            vol[base : base + 8, base : base + 8] = block
        g = 8
        total, plan = groupwise_alltoall_cost(vol, TOPO, g)
        plain = alltoall_cost(vol, TOPO)
        assert total == pytest.approx(plain + (g - 1) * TOPO.intra_latency, rel=1e-12)
        assert sum(p.total_bytes for p in plan.phases[1:]) == 0.0

    def test_byte_conservation_accounting(self):
        rng = np.random.default_rng(6)
        vol = rng.uniform(0, 3e6, (D, D))
        g = 4
        _, plan = groupwise_alltoall_cost(vol, TOPO, g)
        nodes = TOPO.node_of(np.arange(D))
        inter_mask = nodes[:, None] != nodes[None, :]
        inter = vol[inter_mask].sum()
        intra = vol[~inter_mask].sum()
        dispatch = plan.phases[0].total_bytes
        gathered = sum(p.total_bytes for p in plan.phases[1:])
        assert dispatch == pytest.approx(intra + inter / g, rel=1e-12)
        assert gathered == pytest.approx((g - 1) / g * inter, rel=1e-12)
        # thin dispatch plus all-gather replication re-create the input total
        assert dispatch + gathered == pytest.approx(vol.sum(), rel=1e-12)

    def test_allgather_ring_edges_match_straight_line_reference(self):
        # integer byte counts divisible by every g keep all sums exact
        rng = np.random.default_rng(8)
        vol = rng.integers(0, 1000, (D, D)).astype(float) * 8 * 4096
        for g in (2, 4, 8):
            _, plan = groupwise_alltoall_cost(vol, TOPO, g)
            assert [p.kind for p in plan.phases] == ["all_to_all", "all_gather"]
            edges = plan.phases[1].volume
            ref = ring_allgather_edges_reference(vol, TOPO.n_nodes, TOPO.devices_per_node, g)
            assert edges.shape == (D,)
            assert np.array_equal(edges, ref)

    def test_non_dividing_group_size(self):
        with pytest.raises(ValueError, match="divide"):
            groupwise_alltoall_cost(np.zeros((D, D)), TOPO, 3)


class TestLocalityFraction:
    def test_all_local(self):
        placement = ExpertPlacement(tuple([0, 1, 2, 3]))
        out = outcome_for([0, 1, 2, 3])
        assert locality_fraction(out, placement, np.array([4, 5, 6, 7]), TOPO) == 1.0

    def test_uniform_routing_over_two_nodes(self):
        # experts spread evenly over k nodes: locality about 1/k
        rng = np.random.default_rng(7)
        placement = round_robin_placement(16, TOPO)
        experts = rng.integers(0, 16, 20000)
        out = outcome_for(experts)
        src = rng.integers(0, D, 20000)
        frac = locality_fraction(out, placement, src, TOPO)
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_dropped_tokens_do_not_count(self):
        placement = ExpertPlacement((0, 8))
        out = outcome_for([0, 1], dropped=[False, True])
        frac = locality_fraction(out, placement, np.array([0, 0]), TOPO)
        assert frac == 1.0


class TestRelocationMonotonicity:
    def test_moving_token_local_never_increases_cost(self):
        # 100 random single-token relocations from a remote to a local
        # expert, applied cumulatively: at this seed the modeled cost never goes up.
        # Elsewhere one move can raise it (one of 2,000 random trials, by 4.4e-7 relative):
        # each ring round costs its slowest pair, and the local pair it loads may be that pair
        rng = np.random.default_rng(8)
        placement = round_robin_placement(16, TOPO)
        experts = rng.integers(0, 16, 8000)
        src = rng.integers(0, D, 8000)
        out = outcome_for(experts)
        token_bytes = 4096
        vol = build_volume_matrix(out, placement, token_bytes, src, TOPO)
        devices = placement.devices()
        nodes = TOPO.node_of(devices)
        cost = alltoall_cost(vol, TOPO)
        moved = 0
        for _ in range(2000):
            if moved >= 100:
                break
            t = int(rng.integers(0, 8000))
            src_dev = src[t]
            src_node = int(TOPO.node_of(np.array([src_dev]))[0])
            cur_dev = devices[experts[t]]
            if int(TOPO.node_of(np.array([cur_dev]))[0]) == src_node:
                continue
            local_experts = np.flatnonzero(nodes == src_node)
            new_expert = int(rng.choice(local_experts))
            vol[src_dev, cur_dev] -= token_bytes
            vol[src_dev, devices[new_expert]] += token_bytes
            experts[t] = new_expert
            new_cost = alltoall_cost(vol, TOPO)
            assert new_cost <= cost + 1e-18
            cost = new_cost
            moved += 1
        assert moved == 100


def random_topology(rng, n_nodes, devices_per_node):
    inter_bw = rng.uniform(1e9, 50e9)
    return ClusterTopology(
        n_nodes=n_nodes, devices_per_node=devices_per_node,
        intra_bw=inter_bw * rng.uniform(1.01, 8.0), inter_bw=inter_bw,
        intra_latency=rng.uniform(0, 20e-6), inter_latency=rng.uniform(0, 60e-6),
    )


def inter_node_bytes(volume, topology):
    nodes = topology.node_of(np.arange(topology.total_devices))
    return float(volume[nodes[:, None] != nodes[None, :]].sum())


class TestCostProperties:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example(1, 1, 0)
    @example(1, 6, 1)
    @example(5, 1, 2)
    def test_group_of_one_is_the_plain_cost(self, n_nodes, devices_per_node, seed):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng, n_nodes, devices_per_node)
        d = topo.total_devices
        vol = rng.uniform(0, 1e7, (d, d)) * (rng.random((d, d)) < 0.7)
        total, plan = groupwise_alltoall_cost(vol, topo, 1)
        assert total == alltoall_cost(vol, topo)
        assert [p.kind for p in plan.phases] == ["all_to_all"]

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @example(2, 1, 0)
    def test_moving_a_token_to_a_local_expert_never_adds_inter_node_bytes(
            self, n_nodes, devices_per_node, seed):
        # token 0 is served by an expert on another node; moving it to an
        # expert on its own node removes its bytes from the inter-node
        # traffic, in the plain exchange and in every group-wise dispatch
        rng = np.random.default_rng(seed)
        topo = random_topology(rng, n_nodes, devices_per_node)
        d = topo.total_devices
        placement = round_robin_placement(d + int(rng.integers(0, d + 1)), topo)
        expert_node = placement.expert_nodes(topo)
        experts = rng.integers(0, placement.n_experts, 64)
        src = rng.integers(0, d, 64)
        dropped = rng.random(64) < 0.2
        dropped[0] = False
        src_node = topo.node_of(src[0])
        experts[0] = rng.choice(np.flatnonzero(expert_node != src_node))
        moved = experts.copy()
        moved[0] = rng.choice(np.flatnonzero(expert_node == src_node))
        token_bytes = 4096
        before, after = (
            build_volume_matrix(outcome_for(e, dropped, placement.n_experts), placement,
                                token_bytes, src, topo)
            for e in (experts, moved)
        )
        assert inter_node_bytes(after, topo) == inter_node_bytes(before, topo) - token_bytes
        for g in (g for g in range(1, devices_per_node + 1) if devices_per_node % g == 0):
            dispatch = [groupwise_alltoall_cost(v, topo, g)[1].phases[0].volume
                        for v in (before, after)]
            assert inter_node_bytes(dispatch[1], topo) <= inter_node_bytes(dispatch[0], topo)


class TestRoundAtATimeReference:
    """Both costs against the round-at-a-time references, bit for bit."""

    # None keeps the module's block; the small ones split even a few devices
    # into many sender blocks, most of them with a ragged last block
    @pytest.mark.parametrize("block_pairs", [None, 1, 7, 29, 100])
    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 5), st.sampled_from([1, 2, 3, 4, 6]), st.floats(-3, 15),
           st.sampled_from([0.0, 0.3, 1.0]),
           st.sampled_from([None, "intra_bw", "intra_latency", "inter_latency", "no_latency"]),
           st.integers(0, 2**32 - 1))
    @example(1, 1, 0.0, 1.0, None, 0)  # D = 1: no rounds
    @example(1, 3, 15.0, 1.0, None, 1)  # one node: every pair intra-node
    @example(5, 1, -3.0, 1.0, None, 2)  # one device per node: every pair inter-node
    @example(2, 3, 6.0, 0.0, None, 3)  # all-zero volume
    @example(3, 2, 9.0, 0.3, "intra_bw", 4)
    @example(3, 2, 9.0, 0.3, "intra_latency", 5)
    def test_costs_and_plan_match_the_reference_bitwise(
            self, block_pairs, n_nodes, devices_per_node, exponent, density, edge, seed):
        rng = np.random.default_rng(seed)
        topo = random_topology(rng, n_nodes, devices_per_node)
        if edge == "no_latency":
            topo = dataclasses.replace(topo, intra_latency=0.0, inter_latency=0.0)
        elif edge is not None:  # that field infinite
            topo = dataclasses.replace(topo, **{edge: np.inf})
        d = topo.total_devices
        vol = rng.uniform(0, 1, (d, d)) * 10.0**exponent * (rng.random((d, d)) < density)
        with pytest.MonkeyPatch.context() as mp:
            if block_pairs is not None:
                mp.setattr(commsim, "_BLOCK_PAIRS", block_pairs)
            assert alltoall_cost(vol, topo).hex() == ring_cost_reference(vol, topo).hex()
            for g in (g for g in range(1, devices_per_node + 1) if devices_per_node % g == 0):
                total, plan = groupwise_alltoall_cost(vol, topo, g)
                ref_total, ref_phases = groupwise_cost_reference(vol, topo, g)
                assert total.hex() == ref_total.hex()
                assert [p.volume.tobytes() for p in plan.phases] == [v.tobytes() for v in ref_phases]


def _pinned_cases():
    """Seeded volumes, drawn in this order from one stream: a dense and an
    all-zero one at D = 16, a sparse one and one under an infinite intra_bw at
    D = 64, and token-sized byte counts at D = 256."""
    rng = np.random.default_rng(3201)
    d64 = dict(n_nodes=8, devices_per_node=8, inter_bw=12.5e9, intra_latency=5e-6, inter_latency=40e-6)
    return {
        "d16-dense": (TOPO, rng.uniform(0, 1e7, (16, 16))),
        "d16-zero": (TOPO, np.zeros((16, 16))),
        "d64-sparse": (ClusterTopology(intra_bw=80e9, **d64),
                       rng.uniform(0, 1e8, (64, 64)) * (rng.random((64, 64)) < 0.05)),
        "d64-inf-intra-bw": (ClusterTopology(intra_bw=math.inf, **d64), rng.uniform(0, 1e6, (64, 64))),
        "d256-dense": (ClusterTopology(32, 8, 200e9, 50e9, 2e-6, 25e-6),
                       rng.integers(0, 64, (256, 256)) * 4096.0),
    }


class TestFixedValues:
    """Both costs and every plan phase's volume against fixed bits: the
    seconds' .hex() and the sha256 of each phase volume's bytes.  The
    reference test computes its references in the same run, so a change that
    moved the model and the references alike would pass it, and not this."""

    CASES = _pinned_cases()
    PINS = {
        "d16-dense": {
            "plain": "0x1.8a27588a19985p-8",
            "g1": ("0x1.8a27588a19985p-8",
                   "b475cdd6d33550298d8d02c7c1f5055c058c8a9a784c5bd7471b9f76586f96ad"),
            "g2": ("0x1.c66a0ddc1d0c1p-9",
                   "1e1f16c9e4ffbaad894e696d15559f31f2d516b0876f896d74e25c633d896268",
                   "2602b575c501f4355557ef0410513e34c875cd6fe54fd1be2455b55eb48858f1"),
            "g8": ("0x1.e6e0071d00af3p-10",
                   "ef7a9c9014e3e7645a47d62631ccadc851657ebc4d4502712c5c4184e320d552",
                   "6a07609a9f68bad8460822dbb06b25669225a4ecd47843b0aca559521b906c46"),
        },
        "d16-zero": {
            "plain": "0x1.d7dbf487fcb95p-12",
            "g1": ("0x1.d7dbf487fcb95p-12",
                   "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad"),
            "g2": ("0x1.e2584f4c6e6ddp-12",
                   "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
                   "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca"),
            "g8": ("0x1.10a137f38c545p-11",
                   "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
                   "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca"),
        },
        "d64-sparse": {
            "plain": "0x1.2fab59e94c2edp-2",
            "g1": ("0x1.2fab59e94c2edp-2",
                   "5bd19a6bfc3c951188c5130e1c2b984cbe2c9dd9e5942813e3701c5ef007c0e0"),
            "g2": ("0x1.3b9b828cc19c4p-3",
                   "0e5cef4ded00d69c87ad6fde7ccf0686d99cd448b137bdb21d6235ccdb388736",
                   "eed5db7f364efb1782d230b9fdb1f80730c6aea83a2e359c85b817c682226772"),
            "g8": ("0x1.88c1fb9af0c6ep-5",
                   "c37962f7f445590b20be2595cc1b8c702d0340f90bd711286dcb635972faa6df",
                   "ff1e0ac5376cffee8fedacb652b1753d48099fbbf8f48076539be77c187f502d"),
        },
        "d64-inf-intra-bw": {
            "plain": "0x1.e9a6a9682666fp-8",
            "g1": ("0x1.e9a6a9682666fp-8",
                   "0feac005e4add112be073113596a5e5b0658b83187fc89d50c8907e176929fd9"),
            "g2": ("0x1.47ba8255362e6p-8",
                   "552776281888800de66ed77ef6900de8fb7c86d853fc6558fbd20c66b094c683",
                   "ec49e1e4e741f1c0fce234c73961b39320f30c3528b5a688a2bad6e5ffbbcfd4"),
            "g8": ("0x1.a00397d67956fp-9",
                   "7da2c2c74390deec333346389405c5b584ff8a4bf86066b6e43eedf6f88f7200",
                   "142cb5905e5a829a1438523e626a3207b5601c375eb0e62dab3cd84191754522"),
        },
        "d256-dense": {
            "plain": "0x1.f7fdf34b69c96p-8",
            "g1": ("0x1.f7fdf34b69c96p-8",
                   "7dca7d110bc59db2cea49bb42f05a8ede00a86a30c75d15babc9376c0cb3586c"),
            "g2": ("0x1.d2b88ffa16afep-8",
                   "ad67fbbce57eae8a91cff88b7c0bd0ada1fadb4aff5d0b413052c733f67aafba",
                   "71a101ea66d2bdf28a86993a103ceeb1d77b0c41793eb355438a7f71adbaf508"),
            "g8": ("0x1.b6e4858997f1ap-8",
                   "b959338c750fe854424e4c076068ca6d0719249f25393bc5a7018e045397fef8",
                   "ab0949bc52e46282ec21fcf7c51a0ea7d0501482e7dde069809630898477dc63"),
        },
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_costs_and_plan_keep_their_bits(self, name):
        topo, vol = self.CASES[name]
        pins = self.PINS[name]
        assert alltoall_cost(vol, topo).hex() == pins["plain"]
        for g in (1, 2, 8):
            total, plan = groupwise_alltoall_cost(vol, topo, g)
            got = (total.hex(), *(hashlib.sha256(p.volume.tobytes()).hexdigest() for p in plan.phases))
            assert got == pins[f"g{g}"], g


class TestCostMemory:
    """Traced peaks at D = 1024: the costs hold blocks, not whole-matrix copies."""

    TOPO = ClusterTopology(128, 8, 100e9, 25e9, 10e-6, 30e-6)
    VOLUME = np.random.default_rng(11).uniform(0, 1e7, (1024, 1024))

    def test_alltoall_cost_stays_below_four_megabytes(self):
        _, peak = traced_peak(lambda: alltoall_cost(self.VOLUME, self.TOPO))
        assert peak < 4 * 2**20

    def test_groupwise_cost_is_its_dispatch_matrix_plus_two_megabytes(self):
        _, peak = traced_peak(lambda: groupwise_alltoall_cost(self.VOLUME, self.TOPO, 8))
        assert peak <= self.VOLUME.nbytes + 2 * 2**20


class _FakeRun:
    """What compare_strategies reads of a run: its final outcome, the token
    sources and the stacked expert weights' shape (zeros here)."""

    def __init__(self, outcome, source, dim=32):
        self.final_outcome = outcome
        self.source_device = source
        self.params = {"w_in": np.zeros((outcome.n_experts, 4 * dim, dim))}


COST_COLUMNS = ["plain_alltoall_s", "groupwise_alltoall_s", "modeled_compute_s", "visible_comm_s",
                "comm_share"]


class TestCompareStrategies:
    def test_identical_assignments_identical_costs(self):
        rng = np.random.default_rng(9)
        placement = round_robin_placement(16, TOPO)
        experts = rng.integers(0, 16, 2000)
        src = rng.integers(0, D, 2000)
        runs = {
            "a": _FakeRun(outcome_for(experts), src),
            "b": _FakeRun(outcome_for(experts.copy()), src.copy()),
        }
        columns = compare_strategies(runs, placement, TOPO, 4096, tp_group_size=8)
        for name in COST_COLUMNS:
            assert columns[name][0] == columns[name][1], name

    def test_report_columns(self):
        rng = np.random.default_rng(10)
        placement = round_robin_placement(16, TOPO)
        runs = {
            name: _FakeRun(outcome_for(rng.integers(0, 16, 500)), rng.integers(0, D, 500))
            for name in ("hash", "switch", "loc")
        }
        columns = compare_strategies(runs, placement, TOPO, 4096)
        assert list(columns) == COST_COLUMNS
        assert all(len(col) == 3 for col in columns.values())
        assert all(v >= 0.0 for v in columns["visible_comm_s"])


class TestModeledCompute:
    def test_flops_per_served_token_independent_of_expert_count(self):
        d, h, t = 8, 32, 64
        per_token = []
        for n in (2, 4, 8):
            outcome = hash_route(np.arange(t), n)
            served = int((~outcome.dropped).sum())
            per_token.append(forward_flops(outcome, d, h) / served)
        assert per_token[0] == per_token[1] == per_token[2] == flops_per_served_token(d, h)

    def test_compute_matches_literal_values(self):
        # two 32 x 128 products at 2 flops per multiply-add, plus the hidden and output adds
        assert flops_per_served_token(32, 128) == 16544
        rng = np.random.default_rng(11)
        runs = {"a": _FakeRun(outcome_for(rng.integers(0, 16, 4096), n_experts=16), rng.integers(0, D, 4096))}
        compute = compare_strategies(runs, round_robin_placement(16, TOPO), TOPO, 4096)["modeled_compute_s"]
        assert D == 16 and compute == [4096 * 16544 / 1.6e13]

    def test_compute_column_charges_the_served_tokens_of_real_runs(self):
        # one run serves every token, the other runs at a capacity below the
        # mean load; each costs its served tokens' flops over D devices
        d, n = 16, 8
        corpus = make_synthetic_corpus(SyntheticCorpusConfig(4, d, 64, 8.0, seed=3))
        placement = round_robin_placement(n, TOPO)
        runs = {
            name: train(corpus, "switch", n, placement, TOPO, epochs=2, seed=0, capacity=cap,
                        check_gradients=False)
            for name, cap in (("uncapped", None), ("capped", corpus.n_tokens // (2 * n)))
        }
        served = [int((~run.final_outcome.dropped).sum()) for run in runs.values()]
        assert served[0] == corpus.n_tokens > served[1]
        compute = compare_strategies(runs, placement, TOPO, 4096)["modeled_compute_s"]
        for got, count in zip(compute, served):
            want = count * flops_per_served_token(d, 4 * d) / (commsim.DEVICE_FLOPS * D)
            assert got.hex() == want.hex()
        assert compute[1] < compute[0]
