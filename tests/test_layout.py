"""The flat parameter layout: every tensor a view into its tag's vector, and
no call writes into a buffer its caller holds."""
import copy
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.data import AttributeSchema
from fedrec.experiment import ExperimentConfig
from fedrec.federation import _cohort, _draw_order, local_train, partition
from fedrec.model import (
    FROZEN,
    GATE_COMMON,
    GATE_LEARNED,
    GATE_NONE,
    GATE_UNIFORM,
    SHARED,
    TAGS,
    Arch,
    ShapeError,
    backward_batch,
    cohort_mean,
    cohort_of,
    count_params,
    init_params,
    load_params,
    save_params,
    sgd_epochs,
    sgd_step,
)
from helpers import RULES, draw_order_reference, forward_cached, lift, randomized_params, stack, tensor_names
from test_cohort import uniform_world


GATES = [GATE_LEARNED, GATE_UNIFORM, GATE_COMMON, GATE_NONE]


@st.composite
def archs(draw):
    """A random architecture under the fedpa or the all-shared partition rules."""
    user_cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="user cards")
    item_cards = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2), label="item cards")
    users = AttributeSchema(tuple(f"u{j}" for j in range(len(user_cards))), tuple(user_cards))
    items = AttributeSchema(tuple(f"i{j}" for j in range(len(item_cards))), tuple(item_cards))
    arch = Arch(
        users, items,
        embed_dim=draw(st.integers(1, 4), label="embed_dim"),
        mlp_hidden=tuple(draw(st.lists(st.integers(1, 5), max_size=2), label="mlp_hidden")),
        adapter_rank=draw(st.integers(1, 3), label="rank"),
        gate_hidden=draw(st.integers(1, 3), label="gate_hidden"),
        adapter_layers=draw(st.sampled_from(["all", "hidden"]), label="adapter_layers"),
        use_user_adapter=draw(st.booleans(), label="user adapter"),
        group_attrs=tuple(draw(st.sets(st.sampled_from(users.names)), label="group attrs")),
        gate_mode=draw(st.sampled_from(GATES), label="gate mode"),
    )
    policy = draw(st.sampled_from(["fedpa", "full"]), label="policy")
    seed = draw(st.integers(0, 2**16), label="seed")
    return partition(randomized_params(init_params(arch, seed), seed), RULES[policy])


def start_of(view, vector):
    """The offset, in scalars, of `view`'s first element in `vector`."""
    return (view.__array_interface__["data"][0] - vector.__array_interface__["data"][0]) // 8


class TestLayoutProperties:
    @settings(max_examples=80, deadline=None)
    @given(ps=archs(), data=st.data())
    def test_views_segments_counts_and_round_trip(self, ps, data):
        arch, lay = ps.arch, ps.layout
        for name, t in ps.tensors.items():
            vec = ps.flat[ps.tags[name]]
            tag, a, b, shape = lay.entries[name]
            assert tag == ps.tags[name] and t.shape == shape
            assert np.shares_memory(t, vec), name
            assert start_of(t, vec) == a and t.base is not None
            assert np.array_equal(vec[a:b], t.ravel()), name
        # each group's adapter pairs lie end to end: one contiguous segment
        # (Layout.span), as wide as each other group's of its attribute
        for attr, card in arch.group_cards().items():
            widths = set()
            for g in range(card):
                names = tensor_names(ps, f"adapter/group/{attr}/{g}/*")
                assert len({ps.tags[n] for n in names}) <= 1
                spans = sorted((lay.entries[n][1], lay.entries[n][2]) for n in names)
                assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
                widths.add(sum(b - a for a, b in spans))
                if names:
                    assert lay.span(attr, g) == (ps.tags[names[0]], spans[0][0], spans[-1][1])
            assert len(widths) == 1
        for tag in TAGS:
            assert count_params(ps, tags=[tag]) == ps.flat[tag].size
        assert count_params(ps) == ps.frozen.size + ps.trained.size

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.npz")
            save_params(ps, path)
            back = load_params(path)
        assert back.arch == arch and back.tags == ps.tags
        for tag in TAGS:
            assert back.flat[tag].tobytes() == ps.flat[tag].tobytes()

        name = data.draw(st.sampled_from(sorted(ps.tensors)), label="poisoned tensor")
        bad = ps.tensors[name].copy()
        bad.flat[data.draw(st.integers(0, bad.size - 1), label="element")] = np.nan
        with pytest.raises(ShapeError) as err:
            ps.with_tensors({name: bad}).check_finite()
        assert str(err.value) == f"tensor {name} contains non-finite values"
        ps.check_finite()


class TestNamedCohort:
    """A cohort is laid out as the model with one group per grouping
    attribute: row c holds client c's own group's adapters under group 0's
    names, and every other tensor where the model holds it."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(ps=archs(), data=st.data())
    def test_against_the_model_and_the_own_segment_oracle(self, ps, data):
        arch, lay = ps.arch, ps.layout
        groups = data.draw(st.lists(st.tuples(*(st.integers(0, c - 1) for c in arch.group_cards().values())),
                                    min_size=1, max_size=4), label="group rows")
        cohort = cohort_of(ps, groups)
        own = {}  # group 0's names -> the model's name of that tensor in each row's group
        for attr, segments in lay.groups.items():
            col = arch.group_attrs.index(attr)
            for k, name in enumerate(segments[0]):
                own[name] = [segments[row[col]][k] for row in groups]
        others = {n for segments in lay.groups.values() for names in segments[1:] for n in names}
        assert set(cohort.layout.entries) == set(lay.entries) - others
        for name, (tag, *_) in cohort.layout.entries.items():
            t = cohort.tensors[name]
            if name in own:
                assert [t[c].tobytes() for c in range(len(groups))] == [ps.tensors[n].tobytes() for n in own[name]]
            else:
                assert cohort.layout.entries[name] == lay.entries[name]
                rows = [t] if tag == FROZEN else list(t)
                assert all(r.tobytes() == ps.tensors[name].tobytes() for r in rows), name
        assert np.array_equal(_draw_order(cohort.layout), draw_order_reference(lay, arch))


class TestCohortMean:
    """`cohort_mean` is `cohort_of`'s inverse for the shared tensors."""

    @settings(max_examples=80, deadline=None)
    @given(ps=archs(), data=st.data())
    def test_inverts_cohort_of_one_row_per_group(self, ps, data):
        # rows of another model's cohort, one per group present; at most two
        # rows, whose mean of equal values is exact in the common range too
        arch, lay = ps.arch, ps.layout
        other = randomized_params(ps, data.draw(st.integers(0, 2**16), label="other seed"))
        n = data.draw(st.integers(1, min([2, *arch.group_cards().values()])), label="rows")
        columns = [data.draw(st.permutations(range(card)), label=attr)[:n] for attr, card in arch.group_cards().items()]
        groups = np.array(columns, dtype=np.intp).T.reshape(n, len(columns))
        out = cohort_mean(ps, groups, cohort_of(other, groups).flat[SHARED])
        absent = {
            name
            for attr, segments in lay.groups.items()
            for g, names in enumerate(segments)
            if g not in groups[:, arch.group_attrs.index(attr)]
            for name in names
        }
        for name, tag in ps.tags.items():
            want = other if tag == SHARED and name not in absent else ps
            assert out.tensors[name].tobytes() == want.tensors[name].tobytes(), name


def snapshot(ps):
    return ps.frozen.tobytes(), ps.trained.tobytes()


class TestNoCallerBufferWritten:
    def world(self):
        ps, clients = uniform_world()
        return ps, copy.deepcopy(clients)

    def test_sgd_step_and_with_tensors(self):
        ps, clients = self.world()
        c = clients[0]
        lone = lift(ps.with_tensors(c.private), c.groups)
        UA = np.tile(c.user_attrs, (len(c.shards["train"]), 1))
        _, cache = forward_cached(lone, UA[None], c.shards["train"].items[None])
        grads = backward_batch(cache, c.shards["train"].labels[None])
        before = snapshot(lone)
        out = sgd_step(lone, grads, 0.5)
        assert snapshot(lone) == before and not np.shares_memory(out.trained, lone.trained)
        assert out.plan is None
        before = snapshot(ps)
        out = ps.with_tensors({"gate/0/W1": np.zeros_like(ps.tensors["gate/0/W1"])})
        assert snapshot(ps) == before and np.any(ps.tensors["gate/0/W1"])

    def test_sgd_epoch_single_and_cohort(self):
        ps, clients = self.world()
        c = clients[0]
        lone = lift(ps.with_tensors(c.private), c.groups)
        shard = c.shards["train"]
        before = snapshot(lone)
        out, _ = sgd_epochs(lone, np.tile(c.user_attrs, (1, len(shard), 1)), shard.items[None], shard.labels[None],
                            [len(shard)], 8, 0.3, [np.random.default_rng(0)], 1)
        assert snapshot(lone) == before and out.plan is None
        arrays = stack(clients, ps.arch, ("train",))
        rows = np.arange(len(clients))
        cohort = _cohort(ps, arrays, rows)
        UA, VA, y, counts = arrays.shards["train"].rows(rows)
        before = snapshot(cohort)
        rngs = [np.random.default_rng(i) for i in rows]
        out, _ = sgd_epochs(cohort, UA, VA, y, counts, 8, 0.3, rngs, 1)
        assert snapshot(cohort) == before and out.plan is None
        assert not np.array_equal(out.trained, cohort.trained)

    def test_frozen_vector_cannot_be_written(self):
        # every cohort and every aggregate shares the model's frozen vector
        ps, clients = self.world()
        assert ps.tags["mlp/0/W"] == FROZEN
        before = ps.tensors["mlp/0/W"].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            ps.tensors["mlp/0/W"][0, 0] = 1.0
        arrays = stack(clients, ps.arch, ("train",))
        rows = np.arange(len(clients))
        cohort = _cohort(ps, arrays, rows)
        UA, VA, y, counts = arrays.shards["train"].rows(rows)
        out, _ = sgd_epochs(cohort, UA, VA, y, counts, 8, 0.3, [np.random.default_rng(i) for i in rows], 2)
        assert np.shares_memory(out.frozen, ps.frozen) and not np.array_equal(out.trained, cohort.trained)
        assert out.tensors["mlp/0/W"].tobytes() == ps.tensors["mlp/0/W"].tobytes() == before

    def test_local_train_leaves_global_and_other_clients(self):
        ps, clients = self.world()
        arrays = stack(clients, ps.arch, ("train",))
        arrays.private += 0.1  # live user adapters
        idx = np.array([1, 4, 5])
        others = np.setdiff1d(np.arange(len(clients)), idx)
        before, private = snapshot(ps), arrays.private.copy()
        cfg = ExperimentConfig(local_epochs=2, fed_lr=0.3, fed_batch=8, seed=3)
        batch = local_train(arrays, idx, ps, cfg, 0, [])
        assert snapshot(ps) == before
        assert arrays.private[others].tobytes() == private[others].tobytes()
        assert not np.array_equal(arrays.private[idx], private[idx])
        assert not np.shares_memory(batch.shared, ps.trained)
        assert ps.tags["item_emb/ia0"] == FROZEN
