import contextlib
import dataclasses
import math
import multiprocessing
import os
import pickle
import tracemalloc
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moelab import defaults, toymoe
from moelab.commsim import ClusterTopology, round_robin_placement
from moelab.losses import cross_entropy_grad, locality_loss, make_local_target, mean_cross_entropy
from moelab.router import (
    RoutingOutcome,
    TokenBatch,
    apply_capacity,
    build_block_gating,
    gate_scores,
    hash_route,
    route_top1,
)
from moelab.special import erf
from moelab.toymoe import (
    COMPARE_LOSSES,
    SyntheticCorpusConfig,
    TrainingDiverged,
    TrainRecord,
    compare_routers,
    entropy,
    gelu,
    gelu_grad,
    init_experts,
    make_synthetic_corpus,
    moe_forward,
    train,
)

from oracles import numpy_blas, openblas_kernel, sequential_compare_routers, straight_line_moe_forward

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

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    @example([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300, 0.0, -0.0])
    @example([1e-9, -3e-17, 0.46875, -4.0, 26.6, -40.0, 1.7e308])
    def test_bitwise_equal_to_the_written_out_product(self, values):
        # x * Phi(x) rounds the same real product as x * 0.5 * (1 + erf(x/sqrt2)),
        # tiny and subnormal x included; scalars take the same path
        x = np.array(values)
        want = x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
        assert [v.hex() for v in gelu(x).tolist()] == [v.hex() for v in want.tolist()]
        assert gelu(values[0]).hex() == want[0].item().hex()


    def test_gives_its_limits_at_infinity_without_warning(self):
        # the suite turns RuntimeWarning into an error, so -inf * Phi(-inf) fails here
        assert gelu(math.inf) == math.inf
        assert gelu(-math.inf) == 0.0
        assert gelu(np.array([-math.inf, math.inf])).tolist() == [0.0, math.inf]

    @settings(deadline=None)
    @given(st.floats(allow_nan=False))
    @example(1e308)
    @example(-1e308)
    @example(math.inf)
    @example(-math.inf)
    @example(1.9e154)
    @example(-1e150)
    @example(38.7)
    def test_grad_gives_the_limit_without_warning_for_huge_inputs(self, x):
        # the suite turns RuntimeWarning into an error, so an overflow in
        # x*x or an inf * 0 fails here; up to 1e150 the bits are the
        # written-out Phi(x) + x * phi(x)
        got = gelu_grad(np.array([x]))[0]
        assert gelu_grad(x).hex() == got.hex()
        if abs(x) <= 1e150:
            cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
            want = cdf + x * (np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
            assert got.hex() == float(want).hex()
        else:
            assert got == (1.0 if x > 0 else 0.0)


class TestMoeForward:
    def test_zero_output_weights(self):
        rng = np.random.default_rng(1)
        d, h, n = 8, 16, 2
        w_in = rng.standard_normal((n, h, d))
        batch = TokenBatch(tokens=rng.standard_normal((10, d)), token_ids=np.arange(10))
        outcome = apply_capacity(route_top1(batch.tokens @ rng.standard_normal((n, d)).T), 1)
        y = moe_forward(batch, outcome, w_in, np.zeros((n, d, h)))
        served = ~outcome.dropped
        assert np.all(y[served] == 0.0)
        assert np.array_equal(y[~served], batch.tokens[~served])

    def test_single_expert_plain_ffn(self):
        rng = np.random.default_rng(2)
        d, h = 6, 12
        w_in, w_out = rng.standard_normal((1, h, d)), rng.standard_normal((1, d, h))
        batch = TokenBatch(tokens=rng.standard_normal((4, d)), token_ids=np.arange(4))
        outcome = hash_route(batch.token_ids, 1)  # single expert, gate exactly 1
        y = moe_forward(batch, outcome, w_in, w_out)
        expected = gelu(batch.tokens @ w_in[0].T) @ w_out[0].T
        assert np.allclose(y, expected, atol=1e-12)
        assert np.all(outcome.gate_value == 1.0)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(3)
        d, h, n, t = 8, 12, 4, 8
        w_in, w_out = init_experts(n, d, h, rng)
        batch = TokenBatch(tokens=rng.standard_normal((t, d)), token_ids=np.arange(t))
        w = build_block_gating(n, d)
        outcome = apply_capacity(route_top1(gate_scores(batch.tokens, w)), 2)
        y = moe_forward(batch, outcome, w_in, w_out)
        oracle = straight_line_moe_forward(
            batch.tokens, outcome.expert_of_token, outcome.gate_value,
            outcome.dropped, w_in, w_out,
        )
        assert np.abs(y - oracle).max() <= 1e-10

    def test_dropped_tokens_pass_through_exactly(self):
        rng = np.random.default_rng(4)
        d, n = 8, 2
        experts = init_experts(n, d, 16, rng)
        batch = TokenBatch(tokens=rng.standard_normal((20, d)), token_ids=np.arange(20))
        outcome = apply_capacity(route_top1(batch.tokens @ np.zeros((n, d)).T), 1)
        y = moe_forward(batch, outcome, *experts)
        dropped = outcome.dropped
        assert dropped.sum() == 19  # everything ties to expert 0, cap 1
        assert np.array_equal(y[dropped], batch.tokens[dropped])

    def test_dimension_mismatch(self):
        experts = init_experts(2, 8, 16, np.random.default_rng(6))
        batch = TokenBatch(tokens=np.zeros((3, 4)), token_ids=np.arange(3))
        with pytest.raises(ValueError, match="dim 8, batch has 4"):
            moe_forward(batch, hash_route(batch.token_ids, 2), *experts)
        batch = TokenBatch(tokens=np.zeros((3, 8)), token_ids=np.arange(3))
        with pytest.raises(ValueError, match="token count"):
            moe_forward(batch, hash_route(np.arange(5), 2), *experts)
        with pytest.raises(ValueError, match="routing covers 3 experts, weights hold 2"):
            moe_forward(batch, hash_route(batch.token_ids, 3), *experts)

    @pytest.mark.parametrize("w_in_shape,w_out_shape", [
        ((2, 16, 8), (2, 16, 8)),  # w_out not the transpose of w_in per expert
        ((2, 16, 8), (3, 8, 16)),  # expert counts differ
        ((16, 8), (8, 16)),  # one unstacked expert
    ])
    def test_mismatched_stacked_shapes(self, w_in_shape, w_out_shape):
        batch = TokenBatch(tokens=np.zeros((3, 8)), token_ids=np.arange(3))
        with pytest.raises(ValueError, match="incompatible expert shapes"):
            moe_forward(batch, hash_route(batch.token_ids, 2), np.ones(w_in_shape), np.ones(w_out_shape))

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights(self, which, bad):
        experts = list(init_experts(2, 8, 16, np.random.default_rng(7)))
        experts[which][1, 2, 3] = bad
        batch = TokenBatch(tokens=np.ones((3, 8)), token_ids=np.arange(3))
        with pytest.raises(ValueError, match="non-finite"):
            moe_forward(batch, hash_route(batch.token_ids, 2), *experts)


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
        assert np.abs(np.linalg.norm(corpus.tokens, axis=1) - 1).max() <= 1e-9
        assert np.array_equal(np.unique(corpus.labels), np.arange(4))

    def test_concentration_whose_jitter_overflows_is_rejected(self):
        # at d=32 a 1e150 jitter still squares below the float64 maximum, a
        # 1e160 one does not; 1/5e-324 is already infinite
        assert np.abs(np.linalg.norm(small_corpus(dim=32, concentration=1e-150).tokens, axis=1)
                      - 1).max() <= 1e-9
        for c in (1e-160, 1e-300, 5e-324):
            with pytest.raises(ValueError, match=f"concentration {c} is too small"):
                small_corpus(dim=32, concentration=c)


class TestTraining:
    def test_zero_learning_rate_is_constant(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        run = train(corpus, "loc", 8, placement, TOPO, epochs=4, lr=0.0, seed=0,
                    check_gradients=False)
        first = run.records[0]
        for rec in run.records[1:]:
            assert np.array_equal(rec.counts, first.counts)
            assert rec.l_cross_mean == first.l_cross_mean
            assert rec.l_aux == first.l_aux
            assert rec.l_loc == first.l_loc

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
                ref = route_top1(corpus.tokens @ run.params["gating"].T)
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
            y = moe_forward(corpus, run.final_outcome, run.params["w_in"], run.params["w_out"])
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

    @pytest.mark.parametrize("kind", ["hash", "switch", "loc"])
    def test_a_nan_probe_error_is_a_runtime_error(self, kind, monkeypatch):
        # a NaN gradient makes every probe error NaN, which must fail the
        # probe whatever its tolerance, not read as a zero error
        monkeypatch.setattr(toymoe, "cross_entropy_grad", lambda logits, labels: np.full(logits.shape, np.nan))
        corpus = small_corpus()
        with pytest.raises(RuntimeError, match=f"gradient check failed for router '{kind}': max rel err nan"):
            train(corpus, kind, 8, round_robin_placement(8, TOPO), TOPO, epochs=1, seed=0,
                  grad_check_tol=math.inf)

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
            assert math.isfinite(rec.l_cross_mean) and rec.l_cross_mean > 0

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
        record = exc.value.record
        assert 0 < record.epoch < 60
        assert f"at epoch {record.epoch}" in str(exc.value)
        assert math.isfinite(record.l_aux) and not math.isfinite(record.l_cross_mean)

    def test_divergence_survives_pickling(self):
        # a worker process hands its exception back pickled
        record = TrainRecord(epoch=3, counts=np.array([2, 0]), f=np.array([1.0, 0.0]),
                             P=np.array([0.75, 0.25]), l_aux=0.5, l_loc=0.0, l_cross_mean=math.inf,
                             locality_fraction=0.5)
        exc = pickle.loads(pickle.dumps(TrainingDiverged("non-finite objective inf at epoch 3", record)))
        assert type(exc) is TrainingDiverged
        assert str(exc) == "non-finite objective inf at epoch 3"
        assert_same_bits(exc.record, record)

    def test_paired_runs_share_expert_init(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        a = train(corpus, "switch", 8, placement, TOPO, epochs=1, lr=0.0, seed=5,
                  check_gradients=False)
        b = train(corpus, "loc", 8, placement, TOPO, epochs=1, lr=0.0, seed=5,
                  check_gradients=False)
        assert np.array_equal(a.params["w_in"], b.params["w_in"])
        assert np.array_equal(a.params["w_out"], b.params["w_out"])

    def test_compare_routers_trains_each_router_with_its_compare_losses(self):
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        runs = compare_routers(corpus, placement, TOPO, epochs=3, seed=0)
        assert list(runs) == ["hash", "switch", "loc"]
        for kind, run in runs.items():
            want = train(corpus, kind, 8, placement, TOPO, epochs=3,
                         loss_cfg=COMPARE_LOSSES[kind], seed=0)
            assert run.probe_grad_rel_err.hex() == want.probe_grad_rel_err.hex()
            for field in dataclasses.fields(TrainRecord):
                got, expected = (getattr(r.records[-1], field.name) for r in (run, want))
                assert np.array_equal(got, expected), field.name

    @pytest.mark.parametrize("kind", ["hash", "switch", "loc"])
    def test_params_are_the_trained_tensors(self, kind, monkeypatch):
        # the run exposes the very dict training descends on, holding exactly
        # the tensors the gradient step updates
        stepped = []
        real_backward = toymoe._train_backward

        def backward(state, *args):
            grads = real_backward(state, *args)
            assert grads.keys() == state.keys()
            stepped.append(state)
            return grads

        monkeypatch.setattr(toymoe, "_train_backward", backward)
        corpus = small_corpus()
        run = train(corpus, kind, 8, round_robin_placement(8, TOPO), TOPO, epochs=2, seed=0,
                    check_gradients=False)
        assert stepped and all(s is run.params for s in stepped)
        want = {"head", "w_in", "w_out"} | ({"gating"} if kind != "hash" else set())
        assert set(run.params) == want
        assert run.params["w_in"].shape == (8, 4 * corpus.dim, corpus.dim)
        assert run.params["w_out"].shape == (8, corpus.dim, 4 * corpus.dim)

    def test_later_epochs_add_no_memory(self):
        # an epoch's forward cache is freed before the next forward, so three
        # epochs peak where one does (kept alive, it adds about 4.6 MB here)
        corpus = make_synthetic_corpus(defaults.DEFAULT_CORPUS)

        def peak(epochs):
            tracemalloc.start()
            try:
                train(corpus, "loc", 16, defaults.default_placement(), defaults.DEFAULT_TOPOLOGY,
                      epochs=epochs, check_gradients=False)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up
        assert peak(3) <= peak(1) + 2 * 2**20

    def test_unknown_router_kind(self):
        with pytest.raises(ValueError, match="router"):
            train(small_corpus(), "nope", 8, round_robin_placement(8, TOPO), TOPO)

    def test_unlabeled_corpus_rejected(self):
        corpus = small_corpus()
        unlabeled = TokenBatch(tokens=corpus.tokens, token_ids=corpus.token_ids)
        with pytest.raises(ValueError, match="label"):
            train(unlabeled, "loc", 8, round_robin_placement(8, TOPO), TOPO)


def assert_same_bits(got, want, where="value"):
    """got and want hold the same values bit for bit: dataclasses field by
    field, dicts key by key in order, lists item by item, arrays by dtype,
    shape and bytes, floats by their hex form."""
    assert type(got) is type(want), where
    if dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            assert_same_bits(getattr(got, field.name), getattr(want, field.name), f"{where}.{field.name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same_bits(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_bits(g, w, f"{where}[{i}]")
    elif isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where
    elif isinstance(want, float):
        assert got.hex() == want.hex(), where
    else:
        assert got == want, where


def probe_fault_for(kinds):
    """A backward pass whose head gradient is 1% off for the routers in
    ``kinds``, which fails their start-of-run probe."""
    real_backward = toymoe._train_backward

    def backward(state, setup, cache):
        grads = real_backward(state, setup, cache)
        if setup.router_kind in kinds:
            grads["head"] = grads["head"] * 1.01
        return grads

    return backward


forks = pytest.mark.skipif(
    toymoe._openblas_thread_fns() is None or "fork" not in multiprocessing.get_all_start_methods(),
    reason="compare_routers trains in-process without an OpenBLAS setter or fork")


class TestCompareRouters:
    """compare_routers trains the first router here and each other one in a
    forked worker, all on one BLAS thread."""

    @staticmethod
    def small():
        return small_corpus(), round_robin_placement(8, TOPO), TOPO

    @pytest.mark.parametrize("corpus, epochs", [("small", 3), ("default", 2)])
    def test_equals_the_sequential_oracle_bit_for_bit(self, corpus, epochs):
        if corpus == "small":
            args = self.small()
        else:
            args = (make_synthetic_corpus(defaults.DEFAULT_CORPUS), defaults.default_placement(),
                    defaults.DEFAULT_TOPOLOGY)
        seed = 0 if corpus == "small" else defaults.DEFAULT_SEED
        got = compare_routers(*args, epochs=epochs, seed=seed)
        assert_same_bits(got, sequential_compare_routers(*args, epochs=epochs, seed=seed), "runs")

    @forks
    def test_only_the_first_router_trains_here_on_one_blas_thread(self, monkeypatch):
        get, put = toymoe._openblas_thread_fns()
        real_forward = toymoe._train_forward
        here = set()  # a forked worker adds to its own copy

        def forward(state, setup):
            here.add((setup.router_kind, get()))
            return real_forward(state, setup)

        monkeypatch.setattr(toymoe, "_train_forward", forward)
        before = get()
        put(2)  # a count other than the pin's
        try:
            assert list(compare_routers(*self.small(), epochs=1, seed=0)) == ["hash", "switch", "loc"]
        finally:
            put(before)
        assert here == {("hash", 1)}

    @pytest.mark.parametrize("failing, raised", [
        ({"switch", "loc"}, "switch"), ({"hash", "loc"}, "hash"), ({"loc"}, "loc")])
    def test_the_first_failing_router_in_order_raises_its_own_error(self, failing, raised, monkeypatch):
        monkeypatch.setattr(toymoe, "_train_backward", probe_fault_for(failing))
        with pytest.raises(AssertionError, match=f"gradient check failed for router '{raised}'"):
            compare_routers(*self.small(), epochs=1, seed=0)
        assert multiprocessing.active_children() == []

    def test_divergence_in_the_loc_worker_raises_as_in_process(self, monkeypatch):
        real_forward = toymoe._train_forward

        def diverging(state, setup):
            objective, cache = real_forward(state, setup)
            if setup.router_kind == "loc" and len(setup.tokens) > toymoe._PROBE_TOKENS:
                objective = math.nan  # every training epoch, never the probe's objective
            return objective, cache

        monkeypatch.setattr(toymoe, "_train_forward", diverging)
        with pytest.raises(TrainingDiverged) as forked:
            compare_routers(*self.small(), epochs=2, seed=0)
        with pytest.raises(TrainingDiverged) as here:
            sequential_compare_routers(*self.small(), epochs=2, seed=0)
        assert str(forked.value) == str(here.value) == "non-finite objective nan at epoch 0"
        assert_same_bits(forked.value.record, here.value.record, "record")

    @forks
    def test_blas_thread_count_is_restored_after_success_and_failure(self, monkeypatch):
        get, put = toymoe._openblas_thread_fns()
        before = get()
        put(2)  # a count other than the pin's
        try:
            compare_routers(*self.small(), epochs=1, seed=0)
            assert get() == 2
            monkeypatch.setattr(toymoe, "_train_backward", probe_fault_for({"switch"}))
            with pytest.raises(AssertionError):
                compare_routers(*self.small(), epochs=1, seed=0)
            assert get() == 2
        finally:
            put(before)

    @forks
    def test_no_worker_outlives_the_call(self, monkeypatch):
        compare_routers(*self.small(), epochs=1, seed=0)
        assert multiprocessing.active_children() == []
        parent = os.getpid()
        real_train = toymoe.train

        def train_or_die(corpus, kind, *args, **kwargs):
            if kind == "loc" and os.getpid() != parent:
                os._exit(3)
            return real_train(corpus, kind, *args, **kwargs)

        monkeypatch.setattr(toymoe, "train", train_or_die)
        with pytest.raises(BrokenProcessPool) as exc:
            compare_routers(*self.small(), epochs=1, seed=0)
        assert isinstance(exc.value, RuntimeError)  # the CLI's exit 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("missing", ["setter", "fork"])
    def test_in_process_path_equals_the_oracle(self, missing, monkeypatch):
        want = sequential_compare_routers(*self.small(), epochs=2, seed=0)

        def no_pool(*args, **kwargs):
            raise AssertionError("the in-process path forks no worker")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        if missing == "setter":
            monkeypatch.setattr(toymoe, "_openblas_thread_fns", lambda: None)
        else:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        got = compare_routers(*self.small(), epochs=2, seed=0)
        assert_same_bits(got, want, "runs")


@pytest.mark.skipif(toymoe._openblas_thread_fns() is None, reason="no loaded OpenBLAS exports a thread setter")
class TestTrainOnOneBlasThread:
    """train() runs on one OpenBLAS thread whatever count its caller set,
    and gives the caller's count back."""

    @staticmethod
    @contextlib.contextmanager
    def caller_threads(count):
        """Run the block with the OpenBLAS thread count set to ``count``;
        yields the count's getter."""
        get, put = toymoe._openblas_thread_fns()
        before = get()
        put(count)
        try:
            yield get
        finally:
            put(before)

    # on a 2-vCPU OpenBLAS host an unpinned run differs between one and two
    # threads from epoch 10 (loc, seed 13) and epoch 3 (switch, seed 101) on
    @pytest.mark.parametrize("kind, seed, epochs", [("loc", 13, 12), ("switch", 101, 5)])
    def test_runs_are_the_same_bits_at_one_and_two_caller_threads(self, kind, seed, epochs):
        corpus = make_synthetic_corpus(dataclasses.replace(defaults.DEFAULT_CORPUS, seed=seed))
        args = (corpus, kind, defaults.DEFAULT_N_EXPERTS, defaults.default_placement(), defaults.DEFAULT_TOPOLOGY)
        with self.caller_threads(1):
            one = train(*args, epochs=epochs, seed=seed)
        with self.caller_threads(2):
            two = train(*args, epochs=epochs, seed=seed)
        assert_same_bits(two, one, "run")

    def test_trains_on_one_thread_and_gives_the_callers_count_back_also_on_error(self, monkeypatch):
        get, _ = toymoe._openblas_thread_fns()
        real_forward = toymoe._train_forward
        inside = set()

        def forward(state, setup):
            inside.add(get())
            return real_forward(state, setup)

        monkeypatch.setattr(toymoe, "_train_forward", forward)
        args = (small_corpus(), "switch", 8, round_robin_placement(8, TOPO), TOPO)
        with self.caller_threads(2):
            train(*args, epochs=1, seed=0)
            assert get() == 2 and inside == {1}
            monkeypatch.setattr(toymoe, "_train_backward", probe_fault_for({"switch"}))
            with pytest.raises(AssertionError, match="gradient check failed for router 'switch'"):
                train(*args, epochs=1, seed=0)
            assert get() == 2


class TestEmptySourceNodes:
    """16 one-device nodes over 12 tokens: nodes 3, 7, 11 and 15 hold none."""

    TOPO16 = ClusterTopology(16, 1, 2.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["hash", "switch", "loc"])
    def test_locality_loss_sums_the_occupied_nodes_and_the_probe_passes(self, kind):
        corpus = small_corpus(n_clusters=3, dim=8, tokens_per_cluster=4)
        placement = round_robin_placement(4, self.TOPO16)
        loss_cfg = defaults.DEFAULT_TRAIN_LOSSES
        run = train(corpus, kind, 4, placement, self.TOPO16, epochs=2, lr=0.5,
                    loss_cfg=loss_cfg, seed=3)
        assert run.probe_grad_rel_err <= 1e-4
        # the mask-based reference on the last epoch's routing, node by node
        node = self.TOPO16.node_of(run.source_device)
        occupied = [v for v in range(self.TOPO16.n_nodes) if (node == v).any()]
        assert occupied == [0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14]
        probs = run.final_outcome.probs
        want = sum(locality_loss(probs[node == v].mean(axis=0),
                                 make_local_target(placement.expert_nodes(self.TOPO16), v), loss_cfg.mu)
                   for v in occupied)
        assert run.records[-1].l_loc == want


class TestExpertLayerCache:
    def test_backward_reuses_the_forward_cdf(self, monkeypatch):
        # the expert caches carry gelu(z) and gelu'(z) from the forward's
        # Phi(z), so the backward pass evaluates no erf, and its expert
        # gradients are bitwise the ones gelu(z) and gelu_grad(z) give
        erf_calls = []
        monkeypatch.setattr(toymoe, "erf", lambda x: erf_calls.append(1) or erf(x))
        real_backward = toymoe._train_backward
        checked = []

        def backward(state, setup, cache):
            before = len(erf_calls)
            grads = real_backward(state, setup, cache)
            assert len(erf_calls) == before
            tokens = setup.tokens
            d_logits = cross_entropy_grad(cache["logits"], setup.labels) / tokens.shape[0]
            d_raw = cache["outcome"].gate_value[:, None] * (d_logits @ state["head"])
            for e, c in enumerate(cache["expert_caches"]):
                if c is None:
                    assert not grads["w_in"][e].any() and not grads["w_out"][e].any()
                    continue
                idx = c[0]
                z = tokens[idx] @ state["w_in"][e].T
                d_o = d_raw[idx]
                assert np.array_equal(grads["w_out"][e], d_o.T @ gelu(z))
                d_z = (d_o @ state["w_out"][e]) * gelu_grad(z)
                assert np.array_equal(grads["w_in"][e], d_z.T @ tokens[idx])
                checked.append(e)
            return grads

        monkeypatch.setattr(toymoe, "_train_backward", backward)
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        for kind in ("hash", "switch", "loc"):
            train(corpus, kind, 8, placement, TOPO, epochs=2, lr=0.5, seed=0,
                  check_gradients=False)
        assert len(checked) >= 3 * 2 * 4
        assert erf_calls  # the forward passes still evaluate Phi

    @settings(deadline=None)
    @given(st.data())
    def test_expert_slices_are_each_experts_served_tokens_in_batch_order(self, data):
        # the stable-sort dispatch hands each expert exactly the tokens the
        # per-expert selection flatnonzero((expert == e) & ~dropped) gives,
        # in the same order, so the layer's output is bitwise that of the
        # per-expert loop; an expert serving no token gets None
        n = data.draw(st.integers(1, 6), label="experts")
        t = data.draw(st.integers(1, 40), label="tokens")
        expert = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=t, max_size=t)))
        dropped = np.array(data.draw(st.lists(st.booleans(), min_size=t, max_size=t)))
        rng = np.random.default_rng(t)
        tokens = rng.standard_normal((t, 4))
        w_in, w_out = init_experts(n, 4, 8, rng)
        outcome = RoutingOutcome(expert_of_token=expert, probs=np.eye(n)[expert], dropped=dropped)
        _, raw, caches = toymoe._moe_apply(tokens, outcome, w_in, w_out)
        want_raw = np.zeros_like(tokens)
        assert len(caches) == n
        for e, c in enumerate(caches):
            idx = np.flatnonzero((expert == e) & ~dropped)
            if idx.size == 0:
                assert c is None
                continue
            assert np.array_equal(c[0], idx)
            want_raw[idx] = gelu(tokens[idx] @ w_in[e].T) @ w_out[e].T
        assert np.array_equal(raw, want_raw)

    # float.hex() of the probe's worst relative error and the last epoch's
    # mean cross-entropy on the default corpus at seed 2, as the expert layer
    # gave them before it cached Phi(z).  Pinned with the OpenBLAS that
    # numpy bundles, at the version below, running its SkylakeX kernel;
    # another BLAS, or another kernel of the same build, may round the
    # matmuls differently, so elsewhere the pins are skipped.
    PINNED_BLAS = ("scipy-openblas", "0.3.31.188.0")
    PINNED_KERNEL = "SkylakeX"
    PINNED = {
        "hash": ("0x1.2eeefa57fbaafp-19", "0x1.5b3168fb5ee3ep+0"),
        "switch": ("0x1.2386f0df04ea8p-15", "0x1.627eb021c799ap+0"),
        "loc": ("0x1.cc2a82e51d61ap-15", "0x1.6218cffd3e56cp+0"),
    }

    @pytest.mark.parametrize("kind", ["hash", "switch", "loc"])
    def test_probe_and_loss_are_bitwise_pinned(self, kind):
        if numpy_blas() != self.PINNED_BLAS:
            pytest.skip(f"pins taken with {self.PINNED_BLAS}, numpy uses {numpy_blas()}")
        if openblas_kernel() != self.PINNED_KERNEL:
            pytest.skip(f"pins taken on the {self.PINNED_KERNEL} kernel, OpenBLAS runs {openblas_kernel()}")
        topology = defaults.DEFAULT_TOPOLOGY
        run = train(make_synthetic_corpus(defaults.DEFAULT_CORPUS), kind, 16,
                    defaults.default_placement(16, topology), topology,
                    epochs=3, loss_cfg=COMPARE_LOSSES[kind], seed=2)
        got = (run.probe_grad_rel_err.hex(), run.records[-1].l_cross_mean.hex())
        assert got == self.PINNED[kind]


class TestStagedProbe:
    """The probe reruns only the stage a perturbed tensor feeds."""

    @staticmethod
    def _probe_inputs(monkeypatch, kind, n_experts, capacity):
        # the parameters and the probe batch's setup exactly as train() hands them over
        captured = []
        monkeypatch.setattr(toymoe, "_probe_grad_check", lambda *a: captured.append(a[:2]) or 0.0)
        train(small_corpus(), kind, n_experts, round_robin_placement(n_experts, TOPO), TOPO,
              epochs=1, lr=0.0, seed=0, capacity=capacity)
        return captured[0]

    @pytest.mark.parametrize("n_experts,capacity", [(8, None), (2, 1)])
    @pytest.mark.parametrize("kind", ["hash", "switch", "loc"])
    def test_stage_local_objectives_are_the_full_forward_bitwise(
            self, kind, n_experts, capacity, monkeypatch):
        # perturbed coordinates of the head, the gating, experts that serve
        # probe tokens and idle ones: each tensor's objective equals the full
        # _train_forward objective bit for bit
        args = self._probe_inputs(monkeypatch, kind, n_experts, capacity)
        _, cache = toymoe._train_forward(*args)
        busy = [c is not None for c in cache["expert_caches"]]
        if capacity is None:
            assert any(busy) and not all(busy)
        else:
            assert cache["outcome"].dropped.any()
        tensors = toymoe._probe_tensors(*args)
        state = args[0]
        want = [state["head"]] + ([state["gating"]] if kind != "hash" else [])
        want += [state[name][e] for e in range(n_experts) for name in ("w_in", "w_out")]
        assert len(tensors) == len(want)
        for (tensor, _, _), w in zip(tensors, want):
            # the expert views share memory with the trained stacks
            assert tensor.shape == w.shape and np.shares_memory(tensor, w)
        rng = np.random.default_rng(1)
        for tensor, _, objective in tensors:
            flat = tensor.reshape(-1)
            for i in rng.choice(flat.size, 2, replace=False):
                orig = flat[i]
                for step in (1e-5, -1e-5, 0.25):
                    flat[i] = orig + step
                    full = toymoe._train_forward(*args)[0]
                    assert float(objective()).hex() == float(full).hex()
                flat[i] = orig
            assert float(objective()).hex() == float(cache["objective"]).hex()

    def test_injected_faults_fail_the_probe_for_every_router(self, monkeypatch):
        real_backward = toymoe._train_backward
        real_gelu_grad = toymoe.gelu_grad

        def head_scaled(*args):
            grads = real_backward(*args)
            grads["head"] = grads["head"] * 1.01
            return grads

        def w_in_from_the_wrong_expert(*args):
            grads = real_backward(*args)
            g_in = grads["w_in"]
            e = next(e for e, c in enumerate(args[-1]["expert_caches"]) if c is not None)
            g_in[e] = g_in[(e + 1) % len(g_in)]
            return grads

        faults = [
            ("_train_backward", head_scaled),
            ("gelu_grad", lambda x, cdf=None: real_gelu_grad(x, cdf) * 1.001),
            ("_train_backward", w_in_from_the_wrong_expert),
        ]
        corpus = small_corpus()
        placement = round_robin_placement(8, TOPO)
        for name, fault in faults:
            with monkeypatch.context() as m:
                m.setattr(toymoe, name, fault)
                for kind in ("hash", "switch", "loc"):
                    with pytest.raises(AssertionError, match="gradient check failed"):
                        train(corpus, kind, 8, placement, TOPO, epochs=1, seed=0)


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
