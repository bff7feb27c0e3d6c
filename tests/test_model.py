import json
import math
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedrec import model
from fedrec.data import AttributeSchema, DataError
from fedrec.model import (
    ADAPTER_LAYERS,
    FROZEN,
    GATE_COMMON,
    GATE_UNIFORM,
    PRIVATE,
    SHARED,
    Arch,
    ParamSet,
    ShapeError,
    backward_batch,
    count_params,
    forward_batch,
    init_params,
    load_params,
    save_params,
    sgd_epochs,
    sgd_step,
)
from fedrec.model import _embed_grads, _layer_branches, _plan, _row_sum, _softmax
from helpers import (
    backward_full_width,
    bce_loss,
    count_matching,
    embed_grads_reference,
    gradient,
    trained_by_name,
    embed_item,
    embed_reference,
    embed_user,
    forward_cached,
    forward_one_shot,
    lift,
    max_rel_error,
    numeric_grad,
    one_blas_thread_off_skylakex,
    randomized_params,
    sgd_epochs_single,
    single_plan,
    softmax_reference,
    tensor_names,
)


def small_arch(**kw):
    us = AttributeSchema(("ua0", "ua1"), (3, 2))
    it = AttributeSchema(("ia0", "ia1"), (4, 3))
    defaults = dict(embed_dim=4, mlp_hidden=(6, 3), adapter_rank=2, gate_hidden=3,
                    group_attrs=("ua0",))
    defaults.update(kw)
    return Arch(us, it, **defaults)


def random_batch(arch, n, seed, single_user=True):
    rng = np.random.default_rng(seed)
    UA = rng.integers(0, arch.user_schema.cards, size=(n, len(arch.user_schema)))
    VA = rng.integers(0, arch.item_schema.cards, size=(n, len(arch.item_schema)))
    if single_user:
        UA[:] = UA[0]
    y = rng.integers(0, 2, size=n).astype(float)
    groups = {a: int(UA[0, arch.user_schema.index(a)]) for a in arch.group_attrs}
    return UA, VA, y, (groups or None)


class TestEmbedding:
    def test_single_lookup(self):
        us = AttributeSchema(("a",), (1,))
        it = AttributeSchema(("b",), (1,))
        ps = init_params(Arch(us, it, embed_dim=2, mlp_hidden=(), gate_mode="none"), 0)
        ps = ps.with_tensors({"user_emb/a": np.array([[0.1, 0.2]])})
        assert np.allclose(embed_user(ps, [0]), [0.1, 0.2])

    def test_concat_order(self):
        us = AttributeSchema(("a", "b"), (2, 2))
        it = AttributeSchema(("c",), (1,))
        ps = init_params(Arch(us, it, embed_dim=2, mlp_hidden=(), gate_mode="none"), 0)
        v = embed_user(ps, [1, 0])
        expected = np.concatenate([ps.tensors["user_emb/a"][1], ps.tensors["user_emb/b"][0]])
        assert v.shape == (4,)
        assert np.array_equal(v, expected)

    def test_out_of_range_value(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        with pytest.raises(Exception):
            embed_user(ps, [3, 0])
        with pytest.raises(Exception):
            embed_item(ps, [0, 3])


def layer0(ps, X):
    """(Z, cache) of layer 0 of the one-layer fixture on input X."""
    return _layer_branches(single_plan(ps, {"ua": 0}).layers[0], X)


def embedding_world(user_cards, item_cards, d, frozen, stacked, C, n, seed):
    """A ParamSet of embedding tables only (one output layer on top) with the
    given slots frozen, the `stacked` slots carrying a leading axis of C
    clients (and with them every tensor of their tag's vector; the trained
    vectors are stacked, as in any cohort), and a batch of n rows (per
    client, with C) as UA, VA."""
    us = AttributeSchema(tuple(f"u{j}" for j in range(len(user_cards))), tuple(user_cards))
    it = AttributeSchema(tuple(f"i{j}" for j in range(len(item_cards))), tuple(item_cards))
    ps = init_params(Arch(us, it, embed_dim=d, mlp_hidden=(), gate_mode="none"), seed)
    rng = np.random.default_rng(seed)
    names = [f"user_emb/{a}" for a in us.names] + [f"item_emb/{a}" for a in it.names]
    tags = {**ps.tags, **{names[s]: FROZEN for s in frozen}}
    ps = ParamSet(ps.arch, ps.tensors, tags)
    if C:
        frozen_stacked = any(s in frozen for s in stacked)
        ps = ParamSet.from_vectors(
            ps.arch, ps.layout,
            np.repeat(ps.frozen[None], C, axis=0) if frozen_stacked else ps.frozen,
            np.repeat(ps.trained[None], C, axis=0),
        )
        for s, name in enumerate(names):
            if s in stacked:
                ps.tensors[name][...] = rng.normal(size=ps.tensors[name].shape)
    lead = (C, n) if C else (n,)
    UA = rng.integers(0, us.cards, size=lead + (len(us),))
    VA = rng.integers(0, it.cards, size=lead + (len(it),))
    return ps, UA, VA


def assert_fused_embedding_matches_per_table(ps, UA, VA, seed):
    if ps.trained.ndim == 1:  # a plain model, as the cohort of one it trains as
        ps, UA, VA = lift(ps), UA[None], VA[None]
    _, cache = forward_cached(ps, UA, VA)
    X = cache.layers[0].X
    assert np.array_equal(X, embed_reference(ps, UA, VA))
    dX = np.random.default_rng(seed).normal(size=X.shape)
    emb = cache.plan.embed
    _embed_grads(emb, cache.index, dX[..., emb.span][..., emb.span_live])
    got = {n: g for n, g in trained_by_name(ps, cache.plan.grad).items() if "_emb/" in n}
    want = embed_grads_reference(ps, UA, VA, dX)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].shape == ps.tensors[name].shape
        assert np.array_equal(got[name], want[name]), name


class TestFusedEmbedding:
    """The one gather and one np.bincount scatter against the per-table
    lookup and np.add.at oracle in helpers.py, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_table_oracle(self, data):
        user_cards = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="user cards")
        item_cards = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="item cards")
        slots = range(len(user_cards) + len(item_cards))
        frozen = data.draw(st.sets(st.sampled_from(slots)), label="frozen slots")
        C = data.draw(st.sampled_from([0, 1, 3]), label="clients")
        stacked = data.draw(st.sets(st.sampled_from(slots)), label="stacked slots")
        d = data.draw(st.integers(1, 3), label="d")
        n = data.draw(st.integers(1, 12), label="rows")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        ps, UA, VA = embedding_world(user_cards, item_cards, d, frozen, stacked, C, n, seed)
        assert_fused_embedding_matches_per_table(ps, UA, VA, seed)

    @pytest.mark.parametrize("C", [0, 4])
    def test_frozen_slot_between_live_ones_with_repeated_rows(self, C):
        # slot 1 frozen between live slots 0 and 2; 40 rows over 2-row
        # tables repeat every row many times; a cohort stacks the live
        # tables and broadcasts the frozen one
        ps, UA, VA = embedding_world((2, 2), (2,), 3, {1}, {0, 2}, C, 40, 7)
        plan = _plan(ps if C else lift(ps))
        assert isinstance(plan.embed.live, np.ndarray)
        assert [n for n in trained_by_name(ps, plan.grad) if "_emb/" in n] == ["user_emb/u0", "item_emb/i0"]
        assert_fused_embedding_matches_per_table(ps, UA, VA, 7)

    def test_out_of_range_attribute_names_the_table(self):
        ps, UA, VA = embedding_world((2, 3), (4, 3), 2, set(), set(), 0, 5, 1)
        for side, table in ((0, "user_emb/u1"), (1, "item_emb/i1")):
            for bad in (3, -1):
                rows = [UA.copy(), VA.copy()]
                rows[side][2, 1] = bad
                with pytest.raises(ShapeError, match=table):
                    forward_batch(ps, *rows)
                with pytest.raises(ShapeError, match=table):
                    sgd_epochs(lift(ps), rows[0][None], rows[1][None], np.zeros((1, 5)), [5], 2, 0.1,
                               [np.random.default_rng(0)], 1)

    def test_wrong_column_count_rejected(self):
        ps, UA, VA = embedding_world((2, 3), (4,), 2, set(), set(), 0, 5, 1)
        with pytest.raises(ShapeError, match="one column per"):
            forward_batch(ps, UA[:, :1], VA)


class TestForwardWithoutCache:
    @pytest.mark.parametrize("gate_mode", ["learned", "uniform", "common", "none"])
    def test_probs_equal_cached_call(self, gate_mode):
        arch = small_arch(gate_mode=gate_mode)
        ps = randomized_params(init_params(arch, 2), 3, scale=0.5)
        UA, VA, _, groups = random_batch(arch, 30, 4)
        ps, UA, VA = lift(ps, groups), UA[None], VA[None]
        cached, _ = forward_cached(ps, UA, VA)
        probs, cache = forward_batch(ps, UA, VA)
        assert cache is None
        assert np.array_equal(probs, cached)

    def test_holds_one_layer_at_a_time(self):
        # a wide batch through four equal-width layers: inference peaks at
        # about one layer's input and output, not at every layer's
        arch = small_arch(mlp_hidden=(64, 64, 64), group_attrs=(), use_user_adapter=False,
                          gate_mode="none")
        ps = lift(init_params(arch, 0))
        UA, VA, _, _ = random_batch(arch, 4000, 1, single_user=False)
        UA, VA = UA[None], VA[None]

        def peak(forward):
            tracemalloc.start()
            result = forward(ps, UA, VA)
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            del result
            return top

        layer = 4000 * 64 * 8  # one (n, 64) float64 activation
        assert peak(forward_cached) > 6 * layer
        assert peak(forward_batch) < 3 * layer


# The benchmark workloads' base archs on the default synthetic schema: a4's
# (8,) MLP, central_wide's (32, 8) teacher and its student (4-wide
# embeddings, an (8,) MLP).
SYNTH_USERS = AttributeSchema(("ua0", "ua1"), (4, 3))
SYNTH_ITEMS = AttributeSchema(("ia0", "ia1"), (50, 10))
BASE_ARCHS = {
    "a4": dict(embed_dim=8, mlp_hidden=(8,)),
    "teacher": dict(embed_dim=8, mlp_hidden=(32, 8)),
    "student": dict(embed_dim=4, mlp_hidden=(8,)),
}
B = model.INFER_ROWS


def synth_rows(lead, seed):
    rng = np.random.default_rng(seed)
    UA = rng.integers(0, SYNTH_USERS.cards, size=lead + (2,))
    VA = rng.integers(0, SYNTH_ITEMS.cards, size=lead + (2,))
    return UA, VA


def scored_blocks(ps, UA, VA, groups=None):
    """(forward_batch's probabilities, the leading shape of each block it
    scored); a plain model with `groups` is scored as their cohort of one.
    The bit-for-bit comparisons with a one-shot pass run both sides under
    `one_blas_thread_off_skylakex`: on a kernel core other than SkylakeX, a
    threaded product's rows depend on where each thread's share begins, so
    a product need not equal its blocks there."""
    seen = []
    forward = model._forward

    def recording_forward(plan, rows, want_cache, source):
        seen.append(rows.shape[:-1])
        return forward(plan, rows, want_cache, source)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_forward", recording_forward)
        if groups:
            probs = forward_batch(lift(ps, groups), UA[None], VA[None])[0][0]
        else:
            probs, _ = forward_batch(ps, UA, VA)
    return probs, seen


class TestBlockedInference:
    @pytest.mark.parametrize("name", sorted(BASE_ARCHS))
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 60_000])
    def test_single_model_matches_one_shot_bit_for_bit(self, name, n):
        # 2 * B + 1 = 8,193 rows: an equal three-way split of the student's
        # scored some rows differently
        ps = randomized_params(init_params(Arch(SYNTH_USERS, SYNTH_ITEMS, **BASE_ARCHS[name]).base(), 1), 2, scale=0.5)
        UA, VA = synth_rows((n,), n)
        with one_blas_thread_off_skylakex():
            probs, blocks = scored_blocks(ps, UA, VA)
            assert np.array_equal(bits(probs), bits(forward_one_shot(ps, UA, VA)))
        # blocks start at multiples of B; the last takes the remainder
        sizes = [shape[-1] for shape in blocks]
        assert sum(sizes) == n and all(s == B for s in sizes[:-1])
        assert sizes[-1] < 2 * B and (sizes[-1] >= B or len(sizes) == 1)

    def test_gated_model_with_groups_matches_one_shot(self):
        arch = Arch(SYNTH_USERS, SYNTH_ITEMS, embed_dim=8, mlp_hidden=(32, 8), group_attrs=("ua0", "ua1"))
        ps = randomized_params(init_params(arch, 3), 4, scale=0.5)
        UA, VA = synth_rows((2 * B + 1,), 5)
        groups = {"ua0": 2, "ua1": 1}
        with one_blas_thread_off_skylakex():
            probs, blocks = scored_blocks(ps, UA, VA, groups)
            assert np.array_equal(bits(probs), bits(forward_one_shot(ps, UA, VA, groups)))
        assert len(blocks) == 2

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_plain_model_scores_the_same_under_any_tags(self, data):
        # a plain model lifts into its cohort of one as it is tagged, with no
        # re-tag: under any partition tags it scores the bits of its tensors
        # re-tagged all shared, in one block or in several
        gate_mode = data.draw(st.sampled_from(["learned", "uniform", "none"]), label="gate")
        arch = Arch(SYNTH_USERS, SYNTH_ITEMS, embed_dim=8, mlp_hidden=(8,), gate_mode=gate_mode)
        ps = randomized_params(init_params(arch, 1), 2, scale=0.5)
        tags = {name: data.draw(st.sampled_from(model.TAGS), label=name) for name in sorted(ps.tags)}
        n = data.draw(st.sampled_from([1, 37, 2 * B + 3]), label="rows")
        UA, VA = synth_rows((n,), data.draw(st.integers(0, 2**16), label="seed"))
        tagged, _ = forward_batch(ParamSet(arch, ps.tensors, tags), UA, VA)
        shared, _ = forward_batch(ParamSet(arch, ps.tensors), UA, VA)
        assert np.array_equal(bits(tagged), bits(shared))

    def test_cohort_is_one_pass(self):
        # the default 4-branch arch, each client's trained vector its own,
        # at an evaluation's 100 clients of 12 rows
        arch = Arch(SYNTH_USERS, SYNTH_ITEMS, embed_dim=8, mlp_hidden=(32, 8), group_attrs=("ua0", "ua1"))
        lay = init_params(arch, 0).layout.cohort
        trained = np.random.default_rng(0).normal(0.0, 0.5, (100, lay.sizes[model.PRIVATE] + lay.sizes[model.SHARED]))
        cohort = ParamSet.from_vectors(arch, lay, init_params(arch, 0).frozen, trained)
        UA, VA = synth_rows((100, 12), 1)
        probs, blocks = scored_blocks(cohort, UA, VA)
        assert blocks == [(100, 12)]
        assert np.array_equal(bits(probs), bits(forward_one_shot(cohort, UA, VA)))

    def test_memory_is_bounded_by_a_block(self):
        # scoring 60,000 teacher rows holds one block's activations, not
        # every row's: the transient beyond the input and output stays near
        # that of 8,191 rows
        ps = init_params(Arch(SYNTH_USERS, SYNTH_ITEMS, **BASE_ARCHS["teacher"]).base(), 0)

        def peak(n, score):
            UA, VA = synth_rows((n,), 0)
            tracemalloc.start()
            probs = score(ps, UA, VA)
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            del probs
            return top

        blocked = peak(60_000, lambda *a: forward_batch(*a)[0])
        one_shot = peak(60_000, forward_one_shot)
        one_block = peak(2 * B - 1, lambda *a: forward_batch(*a)[0])
        # the (n, 4) gather rows and (n,) probabilities grow with n
        io_bytes = (60_000 - (2 * B - 1)) * (4 + 1) * 8
        assert blocked < one_block + 1.5 * io_bytes
        assert blocked < one_shot / 3


class TestLayerForward:
    def fixture_ps(self, gate_mode="learned"):
        # d=2, k=2, r=1, B=3 one-layer-under-test fixture
        us = AttributeSchema(("ua",), (3,))
        it = AttributeSchema(("ia",), (3,))
        arch = Arch(us, it, embed_dim=1, mlp_hidden=(2,), adapter_rank=1, gate_hidden=2,
                    group_attrs=("ua",), gate_mode=gate_mode)
        ps = init_params(arch, 0)
        fix = {
            "mlp/0/W": np.array([[0.5, -0.2], [0.1, 0.7]]),
            "mlp/0/b": np.array([0.05, -0.1]),
            "adapter/user/0/A": np.array([[0.6], [-0.3]]),
            "adapter/user/0/B": np.array([[0.2, 0.4]]),
            "adapter/group/ua/0/0/A": np.array([[-0.5], [0.8]]),
            "adapter/group/ua/0/0/B": np.array([[0.3, -0.1]]),
        }
        if gate_mode == "learned":
            fix["gate/0/W1"] = np.array([[0.4, 0.2], [-0.6, 0.5]])
            fix["gate/0/W2"] = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2]])
        return ps.with_tensors(fix)

    def test_hand_computed_three_branch_fusion(self):
        # pinned values computed once with a scalar-loop oracle over the
        # branch/gate equations
        ps = self.fixture_ps()
        X = np.array([[0.3, -0.4]])
        Z, cache = layer0(ps, X)
        assert np.allclose(cache.G[0], [0.3377763879921221, 0.33508495696657087,
                                        0.3271386550413071], atol=1e-15)
        assert np.allclose(Z[0], [0.053208278642114984, -0.07414676696394966], atol=1e-15)
        # oracle recomputation, element by element
        x = X[0]
        c = ps.tensors["mlp/0/W"] @ x + ps.tensors["mlp/0/b"]
        u = ps.tensors["adapter/user/0/A"] @ (ps.tensors["adapter/user/0/B"] @ x)
        g = ps.tensors["adapter/group/ua/0/0/A"] @ (ps.tensors["adapter/group/ua/0/0/B"] @ x)
        s = np.maximum(ps.tensors["gate/0/W1"] @ x, 0.0)
        a = ps.tensors["gate/0/W2"] @ s
        w = np.exp(a - a.max()); w /= w.sum()
        assert np.allclose(Z[0], w[0] * c + w[1] * u + w[2] * g, atol=1e-14)

    def test_zero_adapters_uniform_gate_scales_common(self):
        # W_b = 0 and W_2 = 0 kill the personalization branches and make the
        # gate uniform: fused pre-activation is exactly common / B
        ps = self.fixture_ps()
        ps = ps.with_tensors({
            "adapter/user/0/B": np.zeros((1, 2)),
            "adapter/group/ua/0/0/B": np.zeros((1, 2)),
            "gate/0/W2": np.zeros((3, 2)),
        })
        X = np.array([[0.3, -0.4], [1.0, 2.0]])
        Z, cache = layer0(ps, X)
        common = X @ ps.tensors["mlp/0/W"].T + ps.tensors["mlp/0/b"]
        assert np.array_equal(Z, common * (1.0 / 3.0))
        assert np.allclose(cache.G, 1.0 / 3.0, atol=1e-15)

    def test_one_hot_common_gate_reduces_to_base_layer(self):
        ps = self.fixture_ps(gate_mode=GATE_COMMON)
        X = np.array([[0.3, -0.4]])
        Z, _ = layer0(ps, X)
        common = X @ ps.tensors["mlp/0/W"].T + ps.tensors["mlp/0/b"]
        assert np.array_equal(Z, common)


class TestPredict:
    def test_all_zero_weights_gives_half(self):
        arch = small_arch(gate_mode="none", use_user_adapter=False, group_attrs=())
        ps = init_params(arch, 0)
        ps = ps.with_tensors({n: np.zeros_like(t) for n, t in ps.tensors.items()})
        assert forward_batch(lift(ps), [[[0, 0]]], [[[0, 0]]])[0][0, 0] == 0.5

    def test_output_in_unit_interval(self):
        arch = small_arch()
        ps = randomized_params(init_params(arch, 0), 7, scale=0.5)
        UA, VA, _, groups = random_batch(arch, 50, 3)
        probs, _ = forward_batch(lift(ps, groups), UA[None], VA[None])
        assert np.all((probs > 0) & (probs < 1))

    def test_monotone_in_positive_path_weight(self):
        # 1-layer net: raising the weight on a positive input raises the output
        us = AttributeSchema(("a",), (1,))
        it = AttributeSchema(("b",), (1,))
        arch = Arch(us, it, embed_dim=1, mlp_hidden=(), gate_mode="none")
        ps = init_params(arch, 0)
        ps = ps.with_tensors({"user_emb/a": np.array([[1.0]]),
                              "item_emb/b": np.array([[1.0]]),
                              "mlp/0/W": np.array([[0.5, 0.5]])})
        lo, _ = forward_batch(lift(ps), [[[0]]], [[[0]]])
        hi, _ = forward_batch(lift(ps.with_tensors({"mlp/0/W": np.array([[1.5, 0.5]])})), [[[0]]], [[[0]]])
        assert hi > lo


class TestBceLoss:
    def test_half_prediction(self):
        assert bce_loss([0.5], [1.0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_exact_prediction_clamped(self):
        assert bce_loss([1.0, 0.0], [1.0, 0.0]) <= 2.9e-11

    def test_mean_of_two(self):
        a = bce_loss([0.8], [1.0])
        b = bce_loss([0.3], [0.0])
        assert bce_loss([0.8, 0.3], [1.0, 0.0]) == pytest.approx((a + b) / 2, abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ShapeError):
            bce_loss([], [])


class TestBackward:
    def test_matches_finite_differences(self):
        arch = small_arch()
        for seed in (0, 1, 2):
            ps = randomized_params(init_params(arch, seed), seed + 10)
            UA, VA, y, groups = random_batch(arch, 5, seed)
            lone = lift(ps, groups)
            probs, cache = forward_cached(lone, UA[None], VA[None])
            grads = trained_by_name(lone, backward_batch(cache, y[None]), groups)
            for name, g in grads.items():
                num = numeric_grad(ps, name, UA, VA, groups, y)
                assert max_rel_error(g, num) < 1e-4, name

    def test_frozen_tensor_absent(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        tags = dict(ps.tags)
        for n in tensor_names(ps, "item_emb/*"):
            tags[n] = FROZEN
        ps = ParamSet(arch, ps.tensors, tags)
        UA, VA, y, groups = random_batch(arch, 4, 1)
        lone = lift(ps, groups)
        _, cache = forward_cached(lone, UA[None], VA[None])
        grads = trained_by_name(lone, backward_batch(cache, y[None]), groups)
        assert not any(n.startswith("item_emb/") for n in grads)
        assert any(n.startswith("user_emb/") for n in grads)

    def test_zero_adapter_factor_gradients(self):
        # W_b = 0 makes grad(W_a) zero through the chain rule while grad(W_b)
        # stays generally nonzero
        arch = small_arch()
        ps = init_params(arch, 3)  # W_b is zero at init
        UA, VA, y, groups = random_batch(arch, 4, 2)
        lone = lift(ps, groups)
        _, cache = forward_cached(lone, UA[None], VA[None])
        grads = trained_by_name(lone, backward_batch(cache, y[None]), groups)
        assert np.allclose(grads["adapter/user/0/A"], 0.0)
        assert np.any(grads["adapter/user/0/B"] != 0.0)


class TestSgdStep:
    def test_single_step(self):
        arch = small_arch(gate_mode="none", use_user_adapter=False, group_attrs=())
        ps = init_params(arch, 0)
        ps = ps.with_tensors({"mlp/1/b": np.array([1.0, 1.0, 1.0])})
        out = sgd_step(ps, gradient(ps, {"mlp/1/b": np.array([0.5, 0.0, 0.0])}), 0.1)
        assert np.allclose(out.tensors["mlp/1/b"], [0.95, 1.0, 1.0])

    def test_untouched_tensors_bit_identical(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        out = sgd_step(ps, gradient(ps, {"mlp/0/b": np.ones_like(ps.tensors["mlp/0/b"])}), 0.1)
        for n in ps.tensors:
            if n != "mlp/0/b":
                assert out.tensors[n] is ps.tensors[n] or np.array_equal(out.tensors[n], ps.tensors[n])

    def test_zero_gradient_noop(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        zeros = gradient(ps, {})
        out = sgd_step(sgd_step(ps, zeros, 0.1), zeros, 0.1)
        for n in ps.tensors:
            assert np.array_equal(out.tensors[n], ps.tensors[n])

    def test_nonpositive_lr(self):
        ps = init_params(small_arch(), 0)
        with pytest.raises(ShapeError):
            sgd_step(ps, {}, 0.0)


class TestCountParams:
    def test_single_table(self):
        us = AttributeSchema(("a",), (10,))
        it = AttributeSchema(("b",), (1,))
        arch = Arch(us, it, embed_dim=4, mlp_hidden=(), gate_mode="none")
        ps = init_params(arch, 0)
        assert count_matching(ps, "user_emb/*") == 40

    def test_adapter_pair_size(self):
        # r (k + d) with d=8, k=4, r=2
        us = AttributeSchema(("a",), (2,))
        it = AttributeSchema(("b",), (2,))
        arch = Arch(us, it, embed_dim=4, mlp_hidden=(4,), adapter_rank=2,
                    adapter_layers="hidden", group_attrs=())
        ps = init_params(arch, 0)
        assert count_matching(ps, "adapter/user/0/*") == 2 * (4 + 8)

    def test_closed_form_enumeration(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        d_emb = arch.embed_dim
        expected = sum(p * d_emb for p in arch.user_schema.cards)
        expected += sum(p * d_emb for p in arch.item_schema.cards)
        dims = arch.layer_dims
        for l in range(arch.n_layers):
            expected += dims[l + 1] * dims[l] + dims[l + 1]
        n_adapters = 1 + sum(arch.group_cards().values())
        for l in arch.adapter_layer_ids:
            r = arch.layer_rank(l)
            expected += n_adapters * r * (dims[l + 1] + dims[l])
            expected += arch.gate_hidden * dims[l] + arch.n_branches * arch.gate_hidden
        assert count_params(ps) == expected


class TestInitParams:
    def test_adapter_b_zero(self):
        ps = init_params(small_arch(), 0)
        for n in tensor_names(ps, "adapter/*/B") + tensor_names(ps, "adapter/*/*/*/B"):
            assert np.all(ps.tensors[n] == 0.0)

    def test_gate_uniform_at_init(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        UA, VA, _, groups = random_batch(arch, 8, 5)
        _, cache = forward_cached(lift(ps, groups), UA[None], VA[None])
        for layer in cache.layers:
            if layer.gated:
                assert np.allclose(layer.G, 1.0 / arch.n_branches, atol=1e-15)

    def test_deterministic(self):
        a = init_params(small_arch(), 42)
        b = init_params(small_arch(), 42)
        for n in a.tensors:
            assert np.array_equal(a.tensors[n], b.tensors[n])


def column_cut_world(data):
    """A random arch (1-3 layers, gated or not) whose trained embedding
    tables sit at drawn slots, randomized parameters, and a batch: a plain
    model's as its cohort of one (valid None) or a ragged cohort's
    (valid (C, N)). Returns (ps, UA, VA, y, valid, trained slots)."""
    user_cards = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="user cards")
    item_cards = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="item cards")
    S = len(user_cards) + len(item_cards)
    kind = data.draw(st.sampled_from(["contiguous", "split", "none", "all"]), label="trained slots")
    if kind == "split":  # a frozen slot between trained ones
        S = max(S, 3)
        item_cards += [2] * (S - len(user_cards) - len(item_cards))
        lo = data.draw(st.integers(0, S - 3), label="first")
        hi = data.draw(st.integers(lo + 2, S - 1), label="last")
        gap = data.draw(st.integers(lo + 1, hi - 1), label="gap")
        live = {lo, hi} | set(data.draw(st.sets(st.sampled_from(range(lo + 1, hi))), label="more")) - {gap}
    elif kind == "contiguous":
        lo = data.draw(st.integers(0, S - 1), label="first")
        live = set(range(lo, data.draw(st.integers(lo + 1, S), label="stop")))
    else:
        live = set(range(S)) if kind == "all" else set()
    us = AttributeSchema(tuple(f"u{j}" for j in range(len(user_cards))), tuple(user_cards))
    it = AttributeSchema(tuple(f"i{j}" for j in range(len(item_cards))), tuple(item_cards))
    arch = Arch(
        us, it,
        embed_dim=data.draw(st.integers(1, 4), label="d"),
        mlp_hidden=tuple(data.draw(st.lists(st.integers(1, 6), max_size=2), label="hidden")),
        adapter_rank=data.draw(st.integers(1, 2), label="rank"),
        gate_hidden=data.draw(st.integers(1, 3), label="gate hidden"),
        adapter_layers=data.draw(st.sampled_from(ADAPTER_LAYERS), label="adapter layers"),
        use_user_adapter=data.draw(st.booleans(), label="user adapter"),
        group_attrs=data.draw(st.sampled_from([(), ("u0",)]), label="groups"),
        gate_mode=data.draw(st.sampled_from(["learned", "uniform", "common", "none"]), label="gate"),
    )
    seed = data.draw(st.integers(0, 2**16), label="seed")
    ps = init_params(arch, seed)
    names = [f"user_emb/{a}" for a in us.names] + [f"item_emb/{a}" for a in it.names]
    mlp = data.draw(st.sampled_from([FROZEN, SHARED]), label="mlp tag")
    tags = {n: mlp if n.startswith("mlp/") else PRIVATE if n.startswith("adapter/user/") else SHARED for n in ps.tags}
    for s, name in enumerate(names):
        tags[name] = data.draw(st.sampled_from([PRIVATE, SHARED]), label=name) if s in live else FROZEN
    ps = randomized_params(ParamSet(arch, ps.tensors, tags), seed, scale=0.5)
    rng = np.random.default_rng(seed)
    C = data.draw(st.sampled_from([0, 3]), label="clients")
    N = data.draw(st.integers(1, 9), label="rows")
    lead = (C, N) if C else (N,)
    UA = rng.integers(0, us.cards, size=lead + (len(us),))
    VA = rng.integers(0, it.cards, size=lead + (len(it),))
    y = rng.integers(0, 2, size=lead).astype(float)
    if not C:
        return lift(ps, {a: int(UA[0, 0]) for a in arch.group_attrs}), UA[None], VA[None], y[None], None, live
    counts = np.array(data.draw(st.lists(st.integers(0, N), min_size=C, max_size=C), label="counts"))
    cohort = ps.layout.cohort
    trained = rng.normal(0.0, 0.5, size=(C, cohort.sizes[PRIVATE] + cohort.sizes[SHARED]))
    ps = ParamSet.from_vectors(arch, cohort, ps.frozen, trained)
    return ps, UA, VA, y, np.arange(N) < counts[:, None], live


class TestLayerZeroColumnCut:
    """backward_batch computes the layer-0 input gradient only at the
    trained tables' columns; every gradient must equal the full-width
    oracle's (helpers.backward_full_width) bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_full_width_oracle(self, data):
        ps, UA, VA, y, valid, live = column_cut_world(data)
        _, cache = forward_cached(ps, UA, VA)
        emb = cache.plan.embed
        d = ps.arch.embed_dim
        # the span starts at a multiple of 8 and its scatter columns are the live slots'
        assert emb.span.start % 8 == 0
        cols = np.arange(ps.arch.input_dim)[emb.span][emb.span_live]
        assert np.array_equal(cols, [s * d + j for s in sorted(live) for j in range(d)])
        contiguous = bool(live) and max(live) - min(live) + 1 == len(live)
        assert isinstance(emb.span_live, slice) == contiguous
        want = backward_full_width(cache, y, valid)
        got = backward_batch(cache, y, valid)
        assert np.array_equal(bits(got), bits(want))

    def test_no_trained_table_computes_no_layer0_input_gradient(self, monkeypatch):
        arch = small_arch(mlp_hidden=(3,))
        ps = init_params(arch, 0)
        frozen = {n: FROZEN for n in tensor_names(ps, "*_emb/*")}
        ps = randomized_params(ParamSet(arch, ps.tensors, {**ps.tags, **frozen}), 1)
        UA, VA, y, groups = random_batch(arch, 6, 2)
        ps, UA, VA, y = lift(ps, groups), UA[None], VA[None], y[None]
        _, cache = forward_cached(ps, UA, VA)
        widths = []
        input_grad = model._input_grad

        def recording(terms, cols=None):
            out = input_grad(terms, cols)
            widths.append(out.shape[-1])
            return out

        monkeypatch.setattr(model, "_input_grad", recording)
        want = backward_full_width(cache, y)
        got = backward_batch(cache, y)
        assert widths == [3]  # layer 1's input only
        assert np.array_equal(bits(got), bits(want))


class TestProperties:
    def test_gate_weights_sum_to_one(self):
        arch = small_arch()
        ps = randomized_params(init_params(arch, 0), 8, scale=0.8)
        UA, VA, _, groups = random_batch(arch, 1000, 6)
        _, cache = forward_cached(lift(ps, groups), UA[None], VA[None])
        for layer in cache.layers:
            if layer.gated:
                assert np.all(layer.G >= 0.0) and np.all(layer.G <= 1.0)
                assert np.max(np.abs(layer.G.sum(axis=-1) - 1.0)) < 1e-12

    def test_zero_adapter_one_hot_gate_equals_base(self):
        # zero-init adapters + forced common gate reproduce the plain model
        arch = small_arch(gate_mode=GATE_COMMON)
        base_arch = arch.base()
        ps = init_params(arch, 9)
        base = init_params(base_arch, 9)
        shared = {n: ps.tensors[n] for n in base.tensors}
        base = base.with_tensors(shared)
        UA, VA, _, groups = random_batch(arch, 100, 9)
        full_probs, _ = forward_batch(lift(ps, groups), UA[None], VA[None])
        base_probs, _ = forward_batch(lift(base), UA[None], VA[None])
        assert np.array_equal(full_probs, base_probs)

    def test_loss_decreases_under_sgd(self):
        arch = small_arch()
        UA, VA, y, groups = random_batch(arch, 20, 4)
        ps, UA, VA, y = lift(init_params(arch, 4), groups), UA[None], VA[None], y[None]
        losses = []
        for _ in range(100):
            probs, cache = forward_cached(ps, UA, VA)
            losses.append(bce_loss(probs, y))
            grads = backward_batch(cache, y)
            ps = sgd_step(ps, grads, 0.1)
        decreasing = sum(b < a for a, b in zip(losses, losses[1:]))
        assert decreasing >= 95

    def test_finite_after_training(self):
        arch = small_arch()
        UA, VA, y, groups = random_batch(arch, 20, 4)
        ps, UA, VA, y = lift(init_params(arch, 4), groups), UA[None], VA[None], y[None]
        for _ in range(50):
            probs, cache = forward_cached(ps, UA, VA)
            ps = sgd_step(ps, backward_batch(cache, y), 0.2)
        ps.check_finite()

    def test_uniform_gate_mode_has_no_gate_tensors(self):
        ps = init_params(small_arch(gate_mode=GATE_UNIFORM), 0)
        assert tensor_names(ps, "gate/*") == []


class TestSgdEpoch:
    def test_matches_per_batch_loop(self):
        # the per-batch loop that pretrain, distill and client training
        # each used to inline, kept as the oracle; a plain model trains as
        # its cohort of one
        arch = small_arch()
        UA, VA, y, groups = random_batch(arch, 37, 1)
        ps = lift(randomized_params(init_params(arch, 1), 1), groups)
        got, losses = sgd_epochs(ps, UA[None], VA[None], y[None], [37], 8, 0.1, [np.random.default_rng(5)], 1, True)
        (loss,) = losses[:, 0]
        order = np.random.default_rng(5).permutation(37)
        want, total = ps, 0.0
        for start in range(0, 37, 8):
            idx = order[start : start + 8]
            probs, cache = forward_cached(want, UA[idx][None], VA[idx][None])
            total += bce_loss(probs[0], y[idx]) * len(idx)
            want = sgd_step(want, backward_batch(cache, y[idx][None]), 0.1)
        assert loss == total / 37
        assert np.array_equal(got.trained, want.trained)
        _, no_loss = sgd_epochs(ps, UA[None], VA[None], y[None], [37], 8, 0.1, [np.random.default_rng(5)], 1)
        assert no_loss is None

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        batch=st.one_of(st.integers(1, 8), st.integers(61, 80)),
        gate_mode=st.sampled_from(["learned", "uniform", "none"]),
        frozen_items=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(n=60, batch=1, gate_mode="learned", frozen_items=False, seed=0)
    @example(n=37, batch=8, gate_mode="learned", frozen_items=True, seed=1)
    @example(n=5, batch=64, gate_mode="none", frozen_items=False, seed=2)
    def test_matches_per_batch_oracle(self, n, batch, gate_mode, frozen_items, seed):
        # batch sizes up to 8 leave a partial last batch for most n and give
        # up to 60 batches, whose losses must add in batch order; ones above
        # 60 exceed every n; frozen item tables make the gather read a
        # stacked copy of the tables rather than a view
        arch = small_arch(gate_mode=gate_mode)
        ps = randomized_params(init_params(arch, seed), seed)
        if frozen_items:
            frozen = {t: FROZEN for t in tensor_names(ps, "item_emb/*")}
            ps = ParamSet(arch, ps.tensors, {**ps.tags, **frozen})
        UA, VA, y, groups = random_batch(arch, n, seed)
        ps = lift(ps, groups)
        got, losses = sgd_epochs(ps, UA[None], VA[None], y[None], [n], batch, 0.1, [np.random.default_rng(seed)], 1, True)
        (loss,) = losses[:, 0]
        order = np.random.default_rng(seed).permutation(n)
        want, total = ps, 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            probs, cache = forward_cached(want, UA[idx][None], VA[idx][None])
            total += bce_loss(probs[0], y[idx]) * len(idx)
            want = sgd_step(want, backward_batch(cache, y[idx][None]), 0.1)
        assert loss == total / n
        assert np.array_equal(got.trained, want.trained)

    @pytest.mark.parametrize("rows", [(5, 4, 4), (4, 5, 4), (4, 4, 5)])
    def test_unequal_rows_rejected(self, rows):
        # a 5-row UA with a 4-row y once trained on 4 rows without a word
        arch = small_arch()
        UA, VA, y, groups = random_batch(arch, 5, 0)
        ps = lift(init_params(arch, 0), groups)
        with pytest.raises(ShapeError, match="same rows"):
            sgd_epochs(ps, UA[None, : rows[0]], VA[None, : rows[1]], y[None, : rows[2]], [rows[2]], 2, 0.1,
                       [np.random.default_rng(0)], 1)

    @pytest.mark.parametrize("batch", [0, -3])
    def test_batch_below_one_rejected(self, batch):
        arch = small_arch()
        UA, VA, y, groups = random_batch(arch, 5, 0)
        with pytest.raises(ShapeError, match="batch size"):
            sgd_epochs(lift(init_params(arch, 0), groups), UA[None], VA[None], y[None], [5], batch, 0.1,
                       [np.random.default_rng(0)], 1)

    @settings(max_examples=40, deadline=None)
    @given(
        N=st.integers(1, 9),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_cohort_order_is_each_clients_permutation(self, N, data, seed):
        # client c's rows run in c * N + rng[c].permutation(counts[c]) order,
        # its padding rows after them in place; the user attribute of flat
        # row i is i, so the one step's gather rows read the epoch order
        counts = np.array(data.draw(st.lists(st.integers(0, N), min_size=1, max_size=5), label="counts"))
        C = len(counts)
        arch = Arch(AttributeSchema(("ua0",), (C * N,)), AttributeSchema(("ia0",), (3,)),
                    embed_dim=2, mlp_hidden=(3,), adapter_rank=1, gate_hidden=2)
        ps = init_params(arch, seed)
        cohort = ParamSet.from_vectors(arch, ps.layout.cohort, ps.frozen, np.tile(ps.trained, (C, 1)))
        UA = np.arange(C * N).reshape(C, N, 1)
        VA = np.zeros((C, N, 1), dtype=np.int64)
        y = np.ones((C, N))
        seen = []
        forward = model._forward

        def recording_forward(plan, rows, want_cache, source):
            seen.append(rows - plan.embed.base)
            return forward(plan, rows, want_cache, source)

        rngs = [np.random.default_rng([seed, c]) for c in range(C)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_forward", recording_forward)
            sgd_epochs(cohort, UA, VA, y, counts, N, 0.1, rngs, 1)
        twins = [np.random.default_rng([seed, c]) for c in range(C)]
        want = np.arange(C * N).reshape(C, N)
        for c, (g, n_c) in enumerate(zip(twins, counts)):
            want[c, :n_c] = c * N + g.permutation(n_c)
        (rows,) = seen
        assert np.array_equal(rows[..., 0], want)
        # each client's stream is left where a permutation leaves it
        assert [g.integers(2**62) for g in rngs] == [g.integers(2**62) for g in twins]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        epochs=st.integers(0, 3),
        batch=st.integers(1, 7),
        counts=st.lists(st.integers(0, 9), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @example(epochs=0, batch=3, counts=[4, 0, 9], seed=1)
    def test_one_call_equals_chained_one_epoch_calls(self, epochs, batch, counts, seed):
        # the same trained bits and epoch losses, and every Generator left
        # where the chained calls leave it; zero epochs return the input's
        # values and draw nothing
        arch = small_arch()
        ps = randomized_params(init_params(arch, seed), seed)
        n = sum(counts) or 1
        UA, VA, y, groups = random_batch(arch, n, seed)
        lone, rows = lift(ps, groups), (UA[None], VA[None], y[None], [n])
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got, losses = sgd_epochs(lone, *rows, batch, 0.1, [rng], epochs, want_loss=True)
        want, want_losses = lone, []
        for _ in range(epochs):
            want, loss = sgd_epochs(want, *rows, batch, 0.1, [twin], 1, want_loss=True)
            want_losses.append(loss[0, 0])
        assert losses[:, 0].tolist() == want_losses and np.array_equal(bits(got.trained), bits(want.trained))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert epochs or rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

        # a cohort with ragged counts: client c's rows, padded to the widest
        counts = np.array(counts)
        C, N = len(counts), max(counts.max(), 1)
        cohort = ParamSet.from_vectors(arch, ps.layout.cohort, ps.frozen, np.tile(ps.trained, (C, 1)))
        cohort.trained[...] += np.random.default_rng(seed).normal(0.0, 0.1, cohort.trained.shape)
        UA, VA, y, _ = random_batch(arch, C * N, seed + 1, single_user=False)
        UA, VA, y = UA.reshape(C, N, -1), VA.reshape(C, N, -1), y.reshape(C, N)
        rngs = [np.random.default_rng([seed, c]) for c in range(C)]
        twins = [np.random.default_rng([seed, c]) for c in range(C)]
        got, no_loss = sgd_epochs(cohort, UA, VA, y, counts, batch, 0.1, rngs, epochs)
        want = cohort
        for _ in range(epochs):
            want, _ = sgd_epochs(want, UA, VA, y, counts, batch, 0.1, twins, 1)
        assert no_loss is None and np.array_equal(bits(got.trained), bits(want.trained))
        assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in twins]
        if not epochs:
            assert np.array_equal(bits(got.trained), bits(cohort.trained))
            fresh = [np.random.default_rng([seed, c]) for c in range(C)]
            assert [g.bit_generator.state for g in rngs] == [g.bit_generator.state for g in fresh]

    def test_negative_epochs_rejected(self):
        arch = small_arch()
        UA, VA, y, groups = random_batch(arch, 5, 0)
        with pytest.raises(ShapeError, match="epochs"):
            sgd_epochs(lift(init_params(arch, 0), groups), UA[None], VA[None], y[None], [5], 2, 0.1,
                       [np.random.default_rng(0)], -1)

    def test_empty_epoch(self):
        arch = small_arch()
        UA, VA, y, groups = random_batch(arch, 5, 0)
        ps = lift(init_params(arch, 0), groups)
        UA, VA, y = UA[None, :0], VA[None, :0], y[None, :0]
        with pytest.raises(ShapeError, match="at least one row"):
            sgd_epochs(ps, UA, VA, y, [0], 4, 0.1, [np.random.default_rng(0)], 1, want_loss=True)
        # without a loss to report, an empty epoch trains nothing
        out, loss = sgd_epochs(ps, UA, VA, y, [0], 4, 0.1, [np.random.default_rng(0)], 1)
        assert loss is None and np.array_equal(out.trained, ps.trained)

    def test_rows_of_another_cohort_size_rejected(self):
        # a plain model trains only once lifted, and a cohort on one shard
        # (and count and Generator) per client
        arch = small_arch()
        UA, VA, y, groups = random_batch(arch, 5, 0)
        ps = init_params(arch, 0)
        rng = np.random.default_rng(0)
        for model_, rows in ((ps, (UA, VA, y, [5])), (lift(ps, groups), (UA[None], VA[None], y[None], [5, 5]))):
            with pytest.raises(ShapeError, match="a cohort of"):
                sgd_epochs(model_, *rows, 2, 0.1, [rng], 1)


class TestCohortOfOne:
    """A plain model trains as a cohort of one (model.cohort_of); the
    single-model loop it replaced (helpers.sgd_epochs_single) is the oracle,
    bit for bit: trained vector, epoch losses and Generator state."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_single_model_oracle(self, data):
        kind = data.draw(st.sampled_from(["base", "learned", "uniform"]), label="arch")
        n_groups = data.draw(st.integers(1, 2), label="group attributes")
        arch = small_arch(
            group_attrs=("ua0", "ua1")[:n_groups], gate_mode=GATE_UNIFORM if kind == "uniform" else "learned",
            use_user_adapter=data.draw(st.booleans(), label="user adapter"),
        )
        arch = arch.base() if kind == "base" else arch
        seed = data.draw(st.integers(0, 2**16), label="seed")
        n = data.draw(st.integers(1, 40), label="rows")
        batch = data.draw(st.integers(1, 9), label="batch")  # most row counts leave a partial last batch
        epochs = data.draw(st.integers(0, 2), label="epochs")
        want_loss = data.draw(st.booleans(), label="want_loss")
        ps = randomized_params(init_params(arch, seed), seed)
        if data.draw(st.booleans(), label="frozen item tables"):  # the gather then reads a copy
            ps = ParamSet(arch, ps.tensors, {**ps.tags, **{t: FROZEN for t in tensor_names(ps, "item_emb/*")}})
        UA, VA, y, groups = random_batch(arch, n, seed)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got, losses = sgd_epochs(lift(ps, groups), UA[None], VA[None], y[None], [n], batch, 0.1, [rng], epochs, want_loss)
        want, want_losses = sgd_epochs_single(ps, UA, VA, y, groups, batch, 0.1, twin, epochs, want_loss)
        assert np.array_equal(bits(got.trained), bits(lift(want, groups).trained))
        assert (losses[:, 0].tolist() if want_loss else losses) == want_losses
        assert rng.bit_generator.state == twin.bit_generator.state


def bits(x):
    return np.asarray(x).view(np.int64)


# signed zeros, magnitudes 1e-8 to 1e8 of either sign, and infinities
SUMMANDS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
    st.builds(lambda m, sign: sign * m, st.floats(1e-8, 1e8), st.sampled_from([1.0, -1.0])),
)


class TestColumnReductions:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 12))
    def test_row_sum_is_numpys_add_reduce(self, data, k):
        lead = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6), label="leading shape")
        x = data.draw(hnp.arrays(np.float64, lead + (k,), elements=SUMMANDS, fill=st.nothing()), label="x")
        with np.errstate(invalid="ignore"):  # inf + -inf
            want = np.add.reduce(x, axis=-1)
            got = _row_sum(x)
        assert got.shape == want.shape and np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_row_of_negative_zeros_sums_to_positive_zero(self, k):
        # numpy's sum starts from its identity +0.0; a bare column add
        # would keep -0.0
        got = _row_sum(np.full((3, 2, k), -0.0))
        assert np.array_equal(bits(got), bits(np.zeros((3, 2))))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(2, 8))
    def test_softmax_is_the_reduction_oracle(self, data, k):
        lead = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6), label="leading shape")
        a = data.draw(hnp.arrays(np.float64, lead + (k,), elements=st.floats(-1e3, 1e3), fill=st.nothing()), label="logits")
        assert np.array_equal(bits(_softmax(a)), bits(softmax_reference(a)))


class TestSerialization:
    def test_metadata_format_pinned(self, tmp_path):
        # the layout every checkpoint so far was written in; load_params reads it
        ps = init_params(small_arch(), 0)
        arch_json = (
            '{"adapter_layers": "all", "adapter_rank": 2, "embed_dim": 4, "gate_hidden": 3, '
            '"gate_mode": "learned", "group_attrs": ["ua0"], "item_schema": {"cards": [4, 3], '
            '"names": ["ia0", "ia1"]}, "mlp_hidden": [6, 3], "use_user_adapter": true, '
            '"user_schema": {"cards": [3, 2], "names": ["ua0", "ua1"]}}'
        )
        path = str(tmp_path / "ckpt.npz")
        save_params(ps, path)
        with np.load(path) as z:
            meta = bytes(z["__meta__"]).decode()
        assert meta == f'{{"arch": {arch_json}, "tags": {json.dumps(ps.tags, sort_keys=True)}}}'
        assert load_params(path).arch == ps.arch

    def test_round_trip_bit_exact(self, tmp_path):
        ps = randomized_params(init_params(small_arch(), 5), 5)
        path = str(tmp_path / "ckpt.npz")
        save_params(ps, path)
        back = load_params(path)
        assert back.arch == ps.arch
        assert back.tags == ps.tags
        assert set(back.tensors) == set(ps.tensors)
        for n in ps.tensors:
            assert np.array_equal(back.tensors[n], ps.tensors[n])

    @pytest.mark.parametrize("damage", [
        "not a zip", "empty", "truncated", "re-keyed", "reshaped", "tensor missing", "no metadata", "metadata not JSON",
        "metadata a list", "arch key missing", "arch key added", "tags a list",
    ])
    def test_damaged_checkpoint_raises_one_error_naming_the_path(self, tmp_path, damage):
        path = tmp_path / "ckpt.npz"
        save_params(randomized_params(init_params(small_arch(), 5), 5), str(path))
        with np.load(path) as z:
            arrays = {n: z[n] for n in z.files}
        if damage == "not a zip":
            path.write_text("user_id,age\n0,1\n")
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            if damage == "re-keyed":
                arrays["mlp/0/V"] = arrays.pop("mlp/0/W")
            elif damage == "reshaped":
                arrays["mlp/0/W"] = arrays["mlp/0/W"].T
            elif damage == "tensor missing":
                del arrays["mlp/0/W"]
            elif damage == "no metadata":
                del arrays["__meta__"]
            elif damage == "metadata not JSON":
                arrays["__meta__"] = arrays["__meta__"][:-1]
            else:
                meta = json.loads(bytes(arrays["__meta__"]))
                if damage == "metadata a list":
                    meta = [meta]
                elif damage == "arch key missing":
                    del meta["arch"]["adapter_layers"]  # small_arch keeps the default: unchecked, it would load
                elif damage == "arch key added":
                    meta["arch"]["width"] = 8
                else:
                    meta["tags"] = sorted(meta["tags"].items())
                arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            np.savez(path, **arrays)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: not a readable checkpoint"):
            load_params(str(path))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_cut_or_changed_bytes_load_the_same_model_or_raise_data_error(self, data):
        ps = randomized_params(init_params(small_arch(), 5), 5)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.npz")
            save_params(ps, path)
            with open(path, "rb") as fh:
                blob = bytearray(fh.read())
            if data.draw(st.booleans(), label="cut"):
                blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
            else:
                for at in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1, max_size=3), label="at"):
                    blob[at] = data.draw(st.integers(0, 255), label="byte")
            with open(path, "wb") as fh:
                fh.write(blob)
            try:
                back = load_params(path)
            except DataError as exc:
                assert str(exc).startswith(f"{path}: not a readable checkpoint")
                return
        assert back.arch == ps.arch and back.tags == ps.tags
        assert all(np.array_equal(bits(back.tensors[n]), bits(t)) for n, t in ps.tensors.items())
