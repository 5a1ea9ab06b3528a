import math

import numpy as np
import pytest

from moelab.commsim import ClusterTopology, round_robin_placement
from moelab.losses import mean_cross_entropy
from moelab.router import (
    TokenBatch,
    apply_capacity,
    build_block_gating,
    gate_scores,
    hash_route,
    route_top1,
    switch_route,
)
from moelab.toymoe import (
    ExpertParams,
    SyntheticCorpusConfig,
    TrainingDiverged,
    assignment_report,
    entropy,
    flops_per_served_token,
    forward_flops,
    gelu,
    gelu_grad,
    init_experts,
    make_synthetic_corpus,
    moe_forward,
    train,
)

from oracles import straight_line_moe_forward

TOPO = ClusterTopology(2, 4, 100e9, 25e9, 10e-6, 30e-6)


def small_corpus(**overrides):
    kw = dict(n_clusters=4, dim=16, tokens_per_cluster=64, concentration=8.0, seed=3)
    kw.update(overrides)
    return make_synthetic_corpus(SyntheticCorpusConfig(**kw))


class TestGelu:
    def test_zero(self):
        assert gelu(0.0) == 0.0

    def test_matches_definition_at_sampled_points(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-4, 4, 20):
            phi = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            assert gelu(float(x)) == pytest.approx(x * phi, abs=1e-14)

    def test_value_at_three(self):
        expected = 3.0 * 0.5 * (1.0 + math.erf(3.0 / math.sqrt(2.0)))
        assert gelu(3.0) == pytest.approx(expected, abs=1e-12)
        assert gelu(3.0) == pytest.approx(2.99595, abs=1e-5)

    def test_gradient_matches_finite_differences(self):
        h = 1e-6
        for x in (-2.0, -0.5, 0.0, 0.3, 1.7):
            fd = (gelu(x + h) - gelu(x - h)) / (2 * h)
            assert gelu_grad(x) == pytest.approx(fd, abs=1e-8)


class TestMoeForward:
    def test_zero_output_weights(self):
        rng = np.random.default_rng(1)
        d, h, n = 8, 16, 2
        experts = [
            ExpertParams(w_in=rng.standard_normal((h, d)), w_out=np.zeros((d, h)))
            for _ in range(n)
        ]
        batch = TokenBatch(tokens=rng.standard_normal((10, d)), token_ids=np.arange(10))
        outcome = apply_capacity(switch_route(batch.tokens, rng.standard_normal((n, d))), 1)
        y = moe_forward(batch, outcome, experts)
        served = ~outcome.dropped
        assert np.all(y[served] == 0.0)
        assert np.array_equal(y[~served], batch.tokens[~served])

    def test_single_expert_plain_ffn(self):
        rng = np.random.default_rng(2)
        d, h = 6, 12
        p = ExpertParams(w_in=rng.standard_normal((h, d)), w_out=rng.standard_normal((d, h)))
        batch = TokenBatch(tokens=rng.standard_normal((4, d)), token_ids=np.arange(4))
        outcome = hash_route(batch.token_ids, 1)  # single expert, gate exactly 1
        y = moe_forward(batch, outcome, [p])
        expected = gelu(batch.tokens @ p.w_in.T) @ p.w_out.T
        assert np.allclose(y, expected, atol=1e-12)
        assert np.all(outcome.gate_value == 1.0)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(3)
        d, h, n, t = 8, 12, 4, 8
        experts = init_experts(n, d, h, rng)
        batch = TokenBatch(tokens=rng.standard_normal((t, d)), token_ids=np.arange(t))
        w = build_block_gating(n, d)
        outcome = apply_capacity(route_top1(gate_scores(batch.tokens, w)), 2)
        y = moe_forward(batch, outcome, experts)
        oracle = straight_line_moe_forward(
            batch.tokens, outcome.expert_of_token, outcome.gate_value,
            outcome.dropped, experts,
        )
        assert np.abs(y - oracle).max() <= 1e-10

    def test_dropped_tokens_pass_through_exactly(self):
        rng = np.random.default_rng(4)
        d, n = 8, 2
        experts = init_experts(n, d, 16, rng)
        batch = TokenBatch(tokens=rng.standard_normal((20, d)), token_ids=np.arange(20))
        outcome = apply_capacity(switch_route(batch.tokens, np.zeros((n, d))), 1)
        y = moe_forward(batch, outcome, experts)
        dropped = outcome.dropped
        assert dropped.sum() == 19  # everything ties to expert 0, cap 1
        assert np.array_equal(y[dropped], batch.tokens[dropped])

    def test_flops_per_served_token_independent_of_expert_count(self):
        rng = np.random.default_rng(5)
        d, h, t = 8, 32, 64
        batch = TokenBatch(tokens=rng.standard_normal((t, d)), token_ids=np.arange(t))
        per_token = []
        for n in (2, 4, 8):
            experts = init_experts(n, d, h, rng)
            outcome = hash_route(batch.token_ids, n)
            served = int((~outcome.dropped).sum())
            per_token.append(forward_flops(outcome, d, h) / served)
        assert per_token[0] == per_token[1] == per_token[2] == flops_per_served_token(d, h)

    def test_dimension_mismatch(self):
        experts = init_experts(2, 8, 16, np.random.default_rng(6))
        batch = TokenBatch(tokens=np.zeros((3, 4)), token_ids=np.arange(3))
        with pytest.raises(ValueError):
            moe_forward(batch, hash_route(batch.token_ids, 2), experts)
        batch = TokenBatch(tokens=np.zeros((3, 8)), token_ids=np.arange(3))
        with pytest.raises(ValueError, match="token count"):
            moe_forward(batch, hash_route(np.arange(5), 2), experts)


class TestSyntheticCorpus:
    def test_infinite_concentration_gives_centers(self):
        cfg = SyntheticCorpusConfig(n_clusters=3, dim=8, tokens_per_cluster=5,
                                    concentration=math.inf, seed=0)
        corpus = make_synthetic_corpus(cfg)
        centers = corpus.tokens[::5]
        for c in range(3):
            block = corpus.tokens[c * 5 : (c + 1) * 5]
            assert np.allclose(block, centers[c], atol=0.0)

    def test_intra_cluster_cosine_beats_inter(self):
        corpus = make_synthetic_corpus(
            SyntheticCorpusConfig(n_clusters=4, dim=64, tokens_per_cluster=1000,
                                  concentration=10.0, seed=1)
        )
        x = corpus.tokens
        labels = corpus.labels
        gram = x @ x.T
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(len(x), dtype=bool)
        intra = gram[same & off_diag].mean()
        inter = gram[~same].mean()
        assert intra > inter

    def test_reproducible_for_fixed_seed(self):
        cfg = SyntheticCorpusConfig(n_clusters=2, dim=8, tokens_per_cluster=10,
                                    concentration=5.0, seed=9)
        a = make_synthetic_corpus(cfg)
        b = make_synthetic_corpus(cfg)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.labels, b.labels)

    def test_unit_norm_and_labels(self):
        corpus = small_corpus()
        assert corpus.unit_norm
        assert np.abs(np.linalg.norm(corpus.tokens, axis=1) - 1).max() <= 1e-9
        assert np.array_equal(np.unique(corpus.labels), np.arange(4))


class TestTraining:
    def test_zero_learning_rate_is_constant(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        run = train(corpus, "loc", 8, placement, TOPO, epochs=4, lr=0.0, seed=0,
                    check_gradients=False)
        first = run.records[0]
        for rec in run.records[1:]:
            assert np.array_equal(rec.counts, first.counts)
            assert rec.l_task == first.l_task
            assert rec.l_aux == first.l_aux

    def test_training_routes_through_the_public_core(self):
        # with lr=0 the logged statistics and final gate are exactly what
        # router.py's public functions give on the run's parameters
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        block_w = build_block_gating(8, corpus.dim)
        for kind in ("hash", "switch", "loc"):
            run = train(corpus, kind, 8, placement, TOPO, epochs=2, lr=0.0, seed=0,
                        check_gradients=False)
            if kind == "hash":
                ref = hash_route(corpus.token_ids, 8)
            elif kind == "switch":
                ref = switch_route(corpus.tokens, run.params["gating"])
            else:
                proj = corpus.tokens @ run.params["gating"].T
                ref = route_top1(gate_scores(proj, block_w))
            rec = run.records[0]
            assert np.array_equal(rec.f, ref.f)
            assert np.array_equal(rec.P, ref.P)
            assert np.array_equal(rec.counts, ref.assigned_counts())
            assert np.array_equal(run.final_outcome.gate_value, ref.gate_value)

    def test_gradient_check_passes_for_all_routers(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        for kind in ("hash", "switch", "loc"):
            run = train(corpus, kind, 8, placement, TOPO, epochs=1, lr=0.5, seed=0,
                        check_gradients=True)
            assert run.probe_grad_rel_err <= 1e-4

    def test_training_runs_the_pass_through_forward(self):
        # with capacity 1 almost every token is dropped, and the logged loss
        # is exactly the one moe_forward gives, where dropped tokens pass
        # through the layer unchanged
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        for kind in ("hash", "switch", "loc"):
            run = train(corpus, kind, 8, placement, TOPO, epochs=1, lr=0.0, seed=0,
                        capacity=1, check_gradients=False)
            assert run.final_outcome.dropped.sum() >= corpus.n_tokens - 8
            y = moe_forward(corpus, run.final_outcome, run.params["experts"])
            want = mean_cross_entropy(y @ run.params["head"].T, corpus.labels)
            assert run.records[0].l_cross_mean == want

    def test_gradient_check_passes_where_capacity_binds(self):
        # with two experts the four probe tokens share an expert under every
        # router, so capacity 1 drops some of them inside the probe too
        corpus = small_corpus()
        placement = round_robin_placement(2, TOPO)
        for kind in ("hash", "switch", "loc"):
            run = train(corpus, kind, 2, placement, TOPO, epochs=1, lr=0.5, seed=0,
                        capacity=1, check_gradients=True)
            assert run.probe_grad_rel_err <= 1e-4

    def test_hash_counts_are_constant_and_balanced(self):
        corpus = small_corpus()  # 256 tokens, multiple of 16
        placement = round_robin_placement(8, TOPO)
        run = train(corpus, "hash", 8, placement, TOPO, epochs=3, lr=0.5, seed=0,
                    check_gradients=False)
        for rec in run.records:
            spread = (rec.counts.max() - rec.counts.min()) / rec.counts.mean()
            assert spread < 0.1

    def test_losses_are_logged_and_finite(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        run = train(corpus, "loc", 8, placement, TOPO, epochs=3, lr=0.5, seed=0,
                    check_gradients=False)
        for rec in run.records:
            assert math.isfinite(rec.l_aux) and rec.l_aux >= 0
            assert math.isfinite(rec.l_loc) and rec.l_loc >= 0
            assert rec.l_cross > 0
            assert rec.l_task == pytest.approx(rec.l_aux + rec.l_loc + rec.l_cross, rel=1e-12)
            assert rec.l_cross_mean == pytest.approx(rec.l_cross / corpus.n_tokens, rel=1e-12)

    def test_classification_improves(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        run = train(corpus, "loc", 8, placement, TOPO, epochs=40, lr=1.0, seed=0,
                    check_gradients=False)
        assert run.records[-1].l_cross_mean < 0.5 * run.records[0].l_cross_mean

    def test_divergence_aborts_with_record(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
            train(corpus, "switch", 8, placement, TOPO, epochs=60, lr=1e9, seed=0,
                  check_gradients=False)
        assert exc.value.record.router_kind == "switch"

    def test_paired_runs_share_expert_init(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        a = train(corpus, "switch", 8, placement, TOPO, epochs=1, lr=0.0, seed=5,
                  check_gradients=False)
        b = train(corpus, "loc", 8, placement, TOPO, epochs=1, lr=0.0, seed=5,
                  check_gradients=False)
        for ea, eb in zip(a.params["experts"], b.params["experts"]):
            assert np.array_equal(ea.w_in, eb.w_in)
            assert np.array_equal(ea.w_out, eb.w_out)

    def test_unknown_router_kind(self):
        with pytest.raises(ValueError, match="router"):
            train(small_corpus(), "nope", 8, round_robin_placement(8, TOPO), TOPO)

    def test_unlabeled_corpus_rejected(self):
        corpus = small_corpus()
        unlabeled = TokenBatch(tokens=corpus.tokens, token_ids=corpus.token_ids)
        with pytest.raises(ValueError, match="label"):
            train(unlabeled, "loc", 8, round_robin_placement(8, TOPO), TOPO)


class TestDefaultLocRun:
    def test_balanced_configuration_uses_every_expert_and_entropy_settles(self):
        # with both penalties enabled, no expert is left unused after the
        # default 50 epochs and entropy is non-decreasing over the last 10
        # epochs within a noise tolerance of 0.05 * ln(n)
        from moelab import defaults

        corpus = make_synthetic_corpus(defaults.DEFAULT_CORPUS)
        run = train(
            corpus, "loc", defaults.DEFAULT_N_EXPERTS,
            defaults.default_placement(), defaults.DEFAULT_TOPOLOGY,
            epochs=defaults.DEFAULT_EPOCHS, lr=defaults.DEFAULT_LR,
            loss_cfg=defaults.DEFAULT_TRAIN_LOSSES,
            seed=defaults.DEFAULT_SEED, check_gradients=False,
        )
        assert int((run.records[-1].counts == 0).sum()) == 0
        ents = [entropy(r.f) for r in run.records]
        tol = 0.05 * math.log(defaults.DEFAULT_N_EXPERTS)
        for a, b in zip(ents[-11:-1], ents[-10:]):
            assert b >= a - tol


class TestAssignmentReport:
    def test_uniform_assignment_entropy(self):
        assert entropy(np.full(8, 1 / 8)) == pytest.approx(math.log(8), abs=1e-12)

    def test_collapsed_assignment(self):
        f = np.zeros(8)
        f[3] = 1.0
        assert entropy(f) == 0.0

    def test_report_shape_and_metrics(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        run = train(corpus, "hash", 8, placement, TOPO, epochs=5, lr=0.1, seed=0,
                    check_gradients=False)
        rows = assignment_report(run.records)
        header, body = rows[0], rows[1:]
        assert len(body) == 5  # epochs x steps
        assert header[:3] == ["epoch", "step", "router"]
        assert "entropy" in header and "never_used_fraction" in header
        ent_col = header.index("entropy")
        never_col = header.index("never_used_fraction")
        for row in body:
            assert row[ent_col] == pytest.approx(math.log(8), abs=1e-9)
            assert row[never_col] == 0.0

    def test_never_used_fraction_counts_cumulative(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        run = train(corpus, "switch", 8, placement, TOPO, epochs=2, lr=0.0, seed=1,
                    check_gradients=False)
        rows = assignment_report(run.records)
        header = rows[0]
        never_col = header.index("never_used_fraction")
        used = int((run.records[0].counts > 0).sum())
        assert rows[1][never_col] == pytest.approx((8 - used) / 8)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            assignment_report([])
