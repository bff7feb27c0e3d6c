import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.data import AttributeSchema
from fedrec.model import (
    FROZEN,
    GATE_COMMON,
    GATE_UNIFORM,
    Arch,
    ParamSet,
    ShapeError,
    backward_batch,
    bce_loss,
    count_params,
    forward_batch,
    init_params,
    load_params,
    predict,
    save_params,
    sgd_epoch,
    sgd_step,
)
from fedrec.model import _embed_grads, _layer_branches, _plan
from helpers import (
    embed_grads_reference,
    embed_item,
    embed_reference,
    embed_user,
    max_rel_error,
    numeric_grad,
    randomized_params,
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
    return _layer_branches(_plan(ps, {"ua": 0}).layers[0], ps.tensors, X)


def embedding_world(user_cards, item_cards, d, frozen, stacked, C, n, seed):
    """A ParamSet of embedding tables only (one output layer on top) with the
    given slots frozen, the `stacked` slots carrying a leading axis of C
    clients, and a batch of n rows (per client, with C) as UA, VA."""
    us = AttributeSchema(tuple(f"u{j}" for j in range(len(user_cards))), tuple(user_cards))
    it = AttributeSchema(tuple(f"i{j}" for j in range(len(item_cards))), tuple(item_cards))
    ps = init_params(Arch(us, it, embed_dim=d, mlp_hidden=(), gate_mode="none"), seed)
    rng = np.random.default_rng(seed)
    names = [f"user_emb/{a}" for a in us.names] + [f"item_emb/{a}" for a in it.names]
    tensors, tags = dict(ps.tensors), dict(ps.tags)
    for s, name in enumerate(names):
        if s in frozen:
            tags[name] = FROZEN
        if C and s in stacked:
            tensors[name] = rng.normal(size=(C,) + tensors[name].shape)
    lead = (C, n) if C else (n,)
    UA = rng.integers(0, us.cards, size=lead + (len(us),))
    VA = rng.integers(0, it.cards, size=lead + (len(it),))
    return ParamSet(ps.arch, tensors, tags), UA, VA


def assert_fused_embedding_matches_per_table(ps, UA, VA, seed):
    _, cache = forward_batch(ps, UA, VA, want_cache=True)
    X = cache.layers[0].X
    assert np.array_equal(X, embed_reference(ps, UA, VA))
    dX = np.random.default_rng(seed).normal(size=X.shape)
    got = _embed_grads(cache.plan.embed, cache.rows, dX)
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
        plan = _plan(ps, None)
        assert isinstance(plan.embed.live, np.ndarray)
        assert [n for n, *_ in plan.embed.grads] == ["user_emb/u0", "item_emb/i0"]
        assert_fused_embedding_matches_per_table(ps, UA, VA, 7)

    def test_out_of_range_attribute_names_the_table(self):
        ps, UA, VA = embedding_world((2, 3), (4,), 2, set(), set(), 0, 5, 1)
        for bad in (3, -1):
            UA[2, 1] = bad
            with pytest.raises(ShapeError, match="user_emb/u1"):
                forward_batch(ps, UA, VA)
            with pytest.raises(ShapeError, match="user_emb/u1"):
                sgd_epoch(ps, UA, VA, np.zeros(5), None, 2, 0.1, np.random.default_rng(0))

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
        cached, _ = forward_batch(ps, UA, VA, groups, want_cache=True)
        probs, cache = forward_batch(ps, UA, VA, groups)
        assert cache is None
        assert np.array_equal(probs, cached)

    def test_holds_one_layer_at_a_time(self):
        # a wide batch through four equal-width layers: inference peaks at
        # about one layer's input and output, not at every layer's
        arch = small_arch(mlp_hidden=(64, 64, 64), group_attrs=(), use_user_adapter=False,
                          gate_mode="none")
        ps = init_params(arch, 0)
        UA, VA, _, _ = random_batch(arch, 4000, 1, single_user=False)

        def peak(want_cache):
            tracemalloc.start()
            result = forward_batch(ps, UA, VA, want_cache=want_cache)
            top = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            del result
            return top

        layer = 4000 * 64 * 8  # one (n, 64) float64 activation
        assert peak(True) > 6 * layer
        assert peak(False) < 3 * layer


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
        assert predict(ps, [0, 0], [0, 0]) == 0.5

    def test_output_in_unit_interval(self):
        arch = small_arch()
        ps = randomized_params(init_params(arch, 0), 7, scale=0.5)
        UA, VA, _, groups = random_batch(arch, 50, 3)
        probs, _ = forward_batch(ps, UA, VA, groups)
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
        lo = predict(ps, [0], [0])
        hi = predict(ps.with_tensors({"mlp/0/W": np.array([[1.5, 0.5]])}), [0], [0])
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
            probs, cache = forward_batch(ps, UA, VA, groups, want_cache=True)
            grads = backward_batch(ps, cache, y)
            for name, g in grads.items():
                num = numeric_grad(ps, name, UA, VA, groups, y)
                assert max_rel_error(g, num) < 1e-4, name

    def test_frozen_tensor_absent(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        tags = dict(ps.tags)
        for n in ps.names("item_emb/*"):
            tags[n] = FROZEN
        ps = ParamSet(arch, ps.tensors, tags)
        UA, VA, y, groups = random_batch(arch, 4, 1)
        _, cache = forward_batch(ps, UA, VA, groups, want_cache=True)
        grads = backward_batch(ps, cache, y)
        assert not any(n.startswith("item_emb/") for n in grads)
        assert any(n.startswith("user_emb/") for n in grads)

    def test_zero_adapter_factor_gradients(self):
        # W_b = 0 makes grad(W_a) zero through the chain rule while grad(W_b)
        # stays generally nonzero
        arch = small_arch()
        ps = init_params(arch, 3)  # W_b is zero at init
        UA, VA, y, groups = random_batch(arch, 4, 2)
        _, cache = forward_batch(ps, UA, VA, groups, want_cache=True)
        grads = backward_batch(ps, cache, y)
        assert np.allclose(grads["adapter/user/0/A"], 0.0)
        assert np.any(grads["adapter/user/0/B"] != 0.0)


class TestSgdStep:
    def test_single_step(self):
        arch = small_arch(gate_mode="none", use_user_adapter=False, group_attrs=())
        ps = init_params(arch, 0)
        ps = ps.with_tensors({"mlp/1/b": np.array([1.0, 1.0, 1.0])})
        out = sgd_step(ps, {"mlp/1/b": np.array([0.5, 0.0, 0.0])}, 0.1)
        assert np.allclose(out.tensors["mlp/1/b"], [0.95, 1.0, 1.0])

    def test_untouched_tensors_bit_identical(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        out = sgd_step(ps, {"mlp/0/b": np.ones_like(ps.tensors["mlp/0/b"])}, 0.1)
        for n in ps.tensors:
            if n != "mlp/0/b":
                assert out.tensors[n] is ps.tensors[n] or np.array_equal(out.tensors[n], ps.tensors[n])

    def test_zero_gradient_noop(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        zeros = {n: np.zeros_like(t) for n, t in ps.tensors.items()}
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
        assert count_params(ps, pattern="user_emb/*") == 40

    def test_adapter_pair_size(self):
        # r (k + d) with d=8, k=4, r=2
        us = AttributeSchema(("a",), (2,))
        it = AttributeSchema(("b",), (2,))
        arch = Arch(us, it, embed_dim=4, mlp_hidden=(4,), adapter_rank=2,
                    adapter_layers="hidden", group_attrs=())
        ps = init_params(arch, 0)
        assert count_params(ps, pattern="adapter/user/0/*") == 2 * (4 + 8)

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
        for n in ps.names("adapter/*/B") + ps.names("adapter/*/*/*/B"):
            assert np.all(ps.tensors[n] == 0.0)

    def test_gate_uniform_at_init(self):
        arch = small_arch()
        ps = init_params(arch, 0)
        UA, VA, _, groups = random_batch(arch, 8, 5)
        _, cache = forward_batch(ps, UA, VA, groups, want_cache=True)
        for layer in cache.layers:
            if layer.gated:
                assert np.allclose(layer.G, 1.0 / arch.n_branches, atol=1e-15)

    def test_deterministic(self):
        a = init_params(small_arch(), 42)
        b = init_params(small_arch(), 42)
        for n in a.tensors:
            assert np.array_equal(a.tensors[n], b.tensors[n])


class TestProperties:
    def test_gate_weights_sum_to_one(self):
        arch = small_arch()
        ps = randomized_params(init_params(arch, 0), 8, scale=0.8)
        UA, VA, _, groups = random_batch(arch, 1000, 6)
        _, cache = forward_batch(ps, UA, VA, groups, want_cache=True)
        for layer in cache.layers:
            if layer.gated:
                assert np.all(layer.G >= 0.0) and np.all(layer.G <= 1.0)
                assert np.max(np.abs(layer.G.sum(axis=1) - 1.0)) < 1e-12

    def test_zero_adapter_one_hot_gate_equals_base(self):
        # zero-init adapters + forced common gate reproduce the plain model
        arch = small_arch(gate_mode=GATE_COMMON)
        base_arch = arch.base()
        ps = init_params(arch, 9)
        base = init_params(base_arch, 9)
        shared = {n: ps.tensors[n] for n in base.tensors}
        base = base.with_tensors(shared)
        UA, VA, _, groups = random_batch(arch, 100, 9)
        full_probs, _ = forward_batch(ps, UA, VA, groups)
        base_probs, _ = forward_batch(base, UA, VA)
        assert np.array_equal(full_probs, base_probs)

    def test_loss_decreases_under_sgd(self):
        arch = small_arch()
        ps = init_params(arch, 4)
        UA, VA, y, groups = random_batch(arch, 20, 4)
        losses = []
        for _ in range(100):
            probs, cache = forward_batch(ps, UA, VA, groups, want_cache=True)
            losses.append(bce_loss(probs, y))
            grads = backward_batch(ps, cache, y)
            ps = sgd_step(ps, grads, 0.1)
        decreasing = sum(b < a for a, b in zip(losses, losses[1:]))
        assert decreasing >= 95

    def test_finite_after_training(self):
        arch = small_arch()
        ps = init_params(arch, 4)
        UA, VA, y, groups = random_batch(arch, 20, 4)
        for _ in range(50):
            probs, cache = forward_batch(ps, UA, VA, groups, want_cache=True)
            ps = sgd_step(ps, backward_batch(ps, cache, y), 0.2)
        ps.check_finite()

    def test_uniform_gate_mode_has_no_gate_tensors(self):
        ps = init_params(small_arch(gate_mode=GATE_UNIFORM), 0)
        assert ps.names("gate/*") == []


class TestSgdEpoch:
    def test_matches_per_batch_loop(self):
        # the per-batch loop that pretrain, distill and client training
        # each used to inline, kept as the oracle
        arch = small_arch()
        ps = randomized_params(init_params(arch, 1), 1)
        UA, VA, y, groups = random_batch(arch, 37, 1)
        got, loss = sgd_epoch(ps, UA, VA, y, groups, 8, 0.1, np.random.default_rng(5), want_loss=True)
        order = np.random.default_rng(5).permutation(37)
        want, total = ps, 0.0
        for start in range(0, 37, 8):
            idx = order[start : start + 8]
            probs, cache = forward_batch(want, UA[idx], VA[idx], groups, want_cache=True)
            total += bce_loss(probs, y[idx]) * len(idx)
            want = sgd_step(want, backward_batch(want, cache, y[idx]), 0.1)
        assert loss == total / 37
        for n in want.tensors:
            assert np.array_equal(got.tensors[n], want.tensors[n]), n
        _, no_loss = sgd_epoch(ps, UA, VA, y, groups, 8, 0.1, np.random.default_rng(5))
        assert no_loss is None


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
