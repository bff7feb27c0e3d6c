import inspect
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec import federation, model
from fedrec.data import (
    FED_TRAIN,
    SPLITS,
    AttributeSchema,
    Dataset,
    SynthConfig,
    split_per_user_chronological,
    split_pretrain_federated,
    synth_generate,
)
from fedrec.federation import (
    FederationError,
    aggregate_uploads,
    build_clients,
    evaluate_global,
    partition,
    pretrain,
    pretrain_examples,
    run_federated,
    select_clients,
    warm_start,
)
from fedrec.experiment import FEDPA_RULES, ExperimentConfig, build_arch, prepare_dataset
from fedrec.metrics import UndefinedMetricError
from fedrec.model import (
    FROZEN,
    PRIVATE,
    SHARED,
    Arch,
    ParamSet,
    ShapeError,
    backward_batch,
    count_params,
    forward_batch,
    init_params,
    sgd_step,
)
from helpers import (
    RULES,
    SPLIT_KEYS,
    ClientState,
    Shard,
    Upload,
    aggregate,
    batch_of,
    build_clients_reference,
    client_objects,
    count_matching,
    forward_cached,
    lift,
    stack,
    tensor_names,
    train_cohort,
    trained_by_name,
    upload_names,
    uploads_of,
    user_matrix,
)


def make_world(seed=0):
    cfg = SynthConfig(n_users=16, n_items=15, user_attrs=(3, 2), item_attrs=(4,),
                      beta=1.0, interactions_per_user=12)
    ds = synth_generate(cfg, seed)
    ds = split_pretrain_federated(ds, 0.5, seed)
    ds, _ = split_per_user_chronological(ds)
    arch = Arch(ds.user_schema, ds.item_schema, embed_dim=4, mlp_hidden=(6,),
                adapter_rank=2, gate_hidden=3, group_attrs=("ua0",))
    return ds, arch


def make_server(arch, seed=0, policy="fedpa"):
    return partition(init_params(arch, seed), RULES[policy])


class TestPartitionPolicy:
    def test_fedpa_tags(self):
        _, arch = make_world()
        tags = partition(init_params(arch, 0), FEDPA_RULES).tags
        assert tags["item_emb/ia0"] == FROZEN
        assert tags["mlp/0/W"] == FROZEN
        assert tags["adapter/user/0/A"] == PRIVATE
        assert tags["user_emb/ua0"] == SHARED
        assert tags["adapter/group/ua0/1/0/B"] == SHARED
        assert tags["gate/0/W1"] == SHARED

    def test_full_tags_everything_shared(self):
        _, arch = make_world()
        tags = partition(init_params(arch, 0), RULES["full"]).tags
        for n in ("item_emb/ia0", "mlp/0/W", "adapter/user/0/A", "gate/0/W2"):
            assert tags[n] == SHARED

    def test_ambiguous_or_unmatched_tensor(self):
        _, arch = make_world()
        ps = init_params(arch, 0)
        with pytest.raises(FederationError, match="'mlp/0/W' matches 2 partition rules"):
            partition(ps, RULES["full"] + (("mlp/*", FROZEN),))
        # the fedpa rules without a rule for the gate
        with pytest.raises(FederationError, match="'gate/0/W1' matches 0 partition rules"):
            partition(ps, FEDPA_RULES[:-1])

    def test_apply_covers_every_tensor(self):
        _, arch = make_world()
        ps = partition(init_params(arch, 0), FEDPA_RULES)
        assert set(ps.tags) == set(ps.tensors)
        assert all(t in (FROZEN, PRIVATE, SHARED) for t in ps.tags.values())


class TestPretrain:
    def test_loss_decreases(self):
        ds, arch = make_world()
        _, losses = pretrain(ds, arch, epochs=5, lr=0.3, batch_size=16, seed=0)
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    def test_zero_epochs_is_fresh_init(self):
        ds, arch = make_world()
        ps, losses = pretrain(ds, arch, epochs=0, lr=0.3, batch_size=16, seed=3)
        assert losses == []
        ref = init_params(arch.base(), 3)
        for n in ref.tensors:
            assert np.array_equal(ps.tensors[n], ref.tensors[n])

    def test_deterministic(self):
        ds, arch = make_world()
        a, la = pretrain(ds, arch, epochs=2, lr=0.3, batch_size=16, seed=1)
        b, lb = pretrain(ds, arch, epochs=2, lr=0.3, batch_size=16, seed=1)
        assert la == lb
        for n in a.tensors:
            assert np.array_equal(a.tensors[n], b.tensors[n])

    @pytest.mark.parametrize("epochs, batch", [(3, 16), (2, 7), (1, 1000)])
    def test_each_step_calls_sgd_step_and_backward_batch_through_the_module(self, monkeypatch, epochs, batch):
        # the benchmark's trace run wraps model.sgd_step and model.backward_batch
        # at every place a fedrec module holds them (perfbench/tracer.py);
        # check_closed_forms (perfbench/run.py) counts the sgd_step calls inside
        # federation.pretrain against epochs * ceil(rows / batch), and
        # Tracer._after_backward_batch reads backward_batch's `labels` by name
        # and adds their len(): a cohort of one's (1, b) labels count 1; and
        # perfbench/workloads.py scores the trained model with
        # model.forward_batch(ps, UA, VA) on 2-D attribute rows
        ds, arch = make_world()
        UA, VA, y = pretrain_examples(ds, seed=0)
        n = len(y)
        calls = {"sgd_step": 0, "backward_batch": 0}
        rows, lens = [], []

        def wrap(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "backward_batch":
                    labels = inspect.signature(fn).bind(*args, **kwargs).arguments["labels"]
                    rows.append(np.size(labels))
                    lens.append(len(labels))
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            original = getattr(model, name)
            wrapper = wrap(name, original)
            for mod in [m for key, m in sys.modules.items() if key == "fedrec" or key.startswith("fedrec.")]:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        monkeypatch.setattr(mod, key, wrapper)
        ps, _ = pretrain(ds, arch, epochs=epochs, lr=0.3, batch_size=batch, seed=0)
        steps = epochs * math.ceil(n / batch)
        assert calls == {"sgd_step": steps, "backward_batch": steps}
        assert sum(rows) == epochs * n
        assert set(lens) == {1}
        probs, _ = model.forward_batch(ps, UA, VA)
        assert probs.shape == (n,) and np.all((probs > 0) & (probs < 1))

    def test_examples_use_native_labels(self):
        ds, _ = make_world()
        _, _, y = pretrain_examples(ds, seed=0)
        # synthetic data carries 0/1 exposure labels, so no sampling happens
        assert set(np.unique(y)) == {0.0, 1.0}
        n_pre = sum(r.split == "pretrain" for r in ds.interactions)
        assert len(y) == n_pre


class TestWarmStart:
    def test_base_tensors_overlaid_bit_exact(self):
        ds, arch = make_world()
        base_ps, _ = pretrain(ds, arch, epochs=1, lr=0.3, batch_size=16, seed=0)
        ps = warm_start(arch, base_ps, seed=0)
        for n in base_ps.tensors:
            assert np.array_equal(ps.tensors[n], base_ps.tensors[n])
        # adapter/gate tensors exist on top
        assert tensor_names(ps, "adapter/*") and tensor_names(ps, "gate/*")

    def test_shape_mismatch_rejected(self):
        ds, arch = make_world()
        base_ps, _ = pretrain(ds, arch, epochs=0, lr=0.1, batch_size=16, seed=0)
        other = Arch(arch.user_schema, arch.item_schema, embed_dim=8, mlp_hidden=(6,),
                     group_attrs=("ua0",))
        with pytest.raises(ShapeError):
            warm_start(other, base_ps, seed=0)


class TestBuildClients:
    def test_one_client_per_federated_user(self):
        ds, arch = make_world()
        arrays = build_clients(ds, arch, seed=0)
        fed_users = {r.user for r in ds.interactions if r.split != "pretrain"}
        assert arrays.uids.tolist() == sorted(fed_users)

    def test_private_adapters_fresh_and_deterministic(self):
        ds, arch = make_world()
        a = build_clients(ds, arch, seed=0)
        b = build_clients(ds, arch, seed=0)
        assert a.private.tobytes() == b.private.tobytes()
        for c in client_objects(a, arch, ds):
            for n, t in c.private.items():
                if n.endswith("/B"):
                    assert np.all(t == 0.0)

    def test_groups_match_assignment(self):
        ds, arch = make_world()
        arrays = build_clients(ds, arch, seed=0)
        assert arrays.groups.tolist() == [[ds.users[uid][0]] for uid in arrays.uids.tolist()]

    @pytest.mark.parametrize("world", ["native labels", "sampled negatives", "no untouched item"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_stacked_per_user_reference(self, world, data):
        # small random worlds with ragged shard lengths: native 0/1 labels,
        # or all positives, whose negatives are sampled; in the last world
        # every user has every item, so no item is left to sample from
        n_users = data.draw(st.integers(2, 6), label="users")
        n_items = data.draw(st.integers(1, 4 if world == "no untouched item" else 8), label="items")
        us = AttributeSchema(("ua0", "ua1"), (3, 2))
        it = AttributeSchema(("ia0",), (2,))
        users = {u: (u % 3, u % 2) for u in range(n_users)}
        items = {i: (i % 2,) for i in range(n_items)}
        user, item, label = [], [], []
        for u in range(n_users):
            mine = data.draw(st.lists(st.integers(0, n_items - 1), max_size=12), label=f"items of {u}")
            if world == "no untouched item":
                mine = list(range(n_items)) + mine
            user += [u] * len(mine)
            item += mine
            label += data.draw(st.lists(st.integers(0, 1), min_size=len(mine), max_size=len(mine)),
                               label=f"labels of {u}") if world == "native labels" else [1] * len(mine)
        # timestamps out of row order, with ties: each split's rows are not one run of rows
        ts = data.draw(st.lists(st.integers(0, 5), min_size=len(user), max_size=len(user)), label="ts")
        ds = Dataset(us, it, users, items, user, item, ts, label)
        ds, _ = split_per_user_chronological(split_pretrain_federated(ds, 0.3, seed=1))
        arch = Arch(us, it, embed_dim=2, mlp_hidden=(3,), adapter_rank=1, gate_hidden=2,
                    group_attrs=data.draw(st.sampled_from([(), ("ua1",), ("ua1", "ua0")]), label="groups"),
                    use_user_adapter=data.draw(st.booleans(), label="user adapter"))
        seed, ratio = data.draw(st.integers(0, 99), label="seed"), data.draw(st.integers(0, 3), label="ratio")
        reference = build_clients_reference(ds, arch, seed, ratio)
        if not reference:  # the split dropped every federated user
            with pytest.raises(FederationError, match="no federated user has at least"):
                build_clients(ds, arch, seed, ratio)
            return
        got = build_clients(ds, arch, seed, ratio)
        want = stack(reference, arch, SPLIT_KEYS)
        assert list(got.shards) == list(SPLIT_KEYS)
        pairs = [("uids", got.uids, want.uids), ("groups", got.groups, want.groups),
                 ("private", got.private, want.private)]
        pairs += [(f"{k}.{f}", getattr(got.shards[k], f), getattr(want.shards[k], f))
                  for k in SPLIT_KEYS for f in ("UA", "VA", "y", "counts")]
        for name, a, b in pairs:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def test_sampled_negatives_avoid_every_split_of_the_user(tmp_path, monkeypatch):
    # a 3-column file has no native negatives, so each split's negatives are
    # sampled; none may be an item the user has in any of its splits
    from test_golden import file_world_cfg

    cfg = file_world_cfg(tmp_path)
    ds, _ = prepare_dataset(cfg)
    drawn = []
    sample = federation.sample_negatives

    def recording(positives, universe, ratio, rng):
        cols = sample(positives, universe, ratio, rng)
        drawn.extend(item[label == 0] for item, label in cols)
        return cols

    monkeypatch.setattr(federation, "sample_negatives", recording)
    uids = build_clients(ds, build_arch(cfg, ds), cfg.seed, cfg.neg_ratio).uids.tolist()
    assert len(drawn) == 3 * len(uids)  # train, val and test of each client, in order
    fed = ds.split >= SPLITS.index(FED_TRAIN)
    for uid, negatives in zip(uids, (drawn[i : i + 3] for i in range(0, len(drawn), 3))):
        mine = ds.item[fed & (ds.user == uid)]
        assert sum(map(len, negatives)) > 0, uid
        for split, negs in zip(SPLIT_KEYS, negatives):
            assert not np.isin(negs, mine).any(), (uid, split, sorted(set(negs) & set(mine)))


class TestSelectClients:
    def test_full_fraction_is_everyone(self):
        assert list(select_clients(7, 1.0, 0, 0)) == list(range(7))

    def test_half_fraction_ceil(self):
        picked = select_clients(7, 0.5, 0, 0)
        assert len(picked) == 4
        assert list(picked) == sorted(picked)

    def test_deterministic_per_round(self):
        a = list(select_clients(10, 0.3, 2, 5))
        b = list(select_clients(10, 0.3, 2, 5))
        c_ = list(select_clients(10, 0.3, 3, 5))
        assert a == b
        assert a != c_ or True  # different rounds may coincide, never required

    def test_bad_fraction(self):
        with pytest.raises(FederationError):
            select_clients(3, 0.0, 0, 0)


def train_one(client, server, cfg, seed=0):
    """One client's upload from a cohort round of that client alone."""
    cfg = replace(cfg, seed=seed)
    return uploads_of(train_cohort([client], server, cfg, 0), [client], server)


class TestClientLocalTrain:
    def setup_world(self):
        ds, arch = make_world()
        clients = client_objects(build_clients(ds, arch, seed=0), arch, ds)
        server = make_server(arch, seed=0)
        return clients, server

    def test_upload_contains_only_own_shared_tensors(self):
        clients, server = self.setup_world()
        c = clients[0]
        cfg = ExperimentConfig(local_epochs=1, fed_lr=0.05, fed_batch=8)
        (up,) = train_one(c, server, cfg)
        names = set(up.tensors)
        assert all(server.tags[n] == SHARED for n in names)
        for n in names:
            if n.startswith("adapter/group/"):
                _, _, attr, g, _ = n.split("/", 4)
                assert c.groups[attr] == int(g)
        # every own-group adapter and all gates/user embeddings are present
        assert any(n.startswith("user_emb/") for n in names)
        assert any(n.startswith("gate/") for n in names)
        assert any(n.startswith(f"adapter/group/ua0/{c.groups['ua0']}/") for n in names)

    def test_zero_epochs_uploads_globals_unchanged(self):
        clients, server = self.setup_world()
        c = clients[0]
        before = {k: v.copy() for k, v in c.private.items()}
        cfg = ExperimentConfig(local_epochs=0, fed_lr=0.05, fed_batch=8)
        (up,) = train_one(c, server, cfg)
        for n, t in up.tensors.items():
            assert np.array_equal(t, server.tensors[n])
        for n in before:
            assert np.array_equal(c.private[n], before[n])

    def test_single_step_matches_model_core_oracle(self):
        # one epoch, one batch: the upload must equal a single hand-applied
        # forward/backward/sgd_step on the overlaid parameters
        clients, server = self.setup_world()
        c = clients[0]
        n = len(c.shards["train"])
        cfg = ExperimentConfig(local_epochs=1, fed_lr=0.1, fed_batch=max(n, 1))
        ps = lift(server.with_tensors({k: v.copy() for k, v in c.private.items()}), c.groups)
        rng = np.random.default_rng([0, 0, c.uid, 1])
        order = rng.permutation(n)
        UA = user_matrix(c, n)
        probs, cache = forward_cached(ps, UA[order][None], c.shards["train"].items[order][None])
        expected = sgd_step(ps, backward_batch(cache, c.shards["train"].labels[order][None]), 0.1)
        expected = trained_by_name(expected, expected.trained, c.groups)  # the own group's adapters too
        (up,) = train_one(c, server, cfg)
        for name, t in up.tensors.items():
            assert np.allclose(t, expected[name], atol=1e-14), name
        for name, t in c.private.items():
            assert np.allclose(t, expected[name], atol=1e-14), name

    def test_empty_train_shard_skipped(self):
        clients, server = self.setup_world()
        c = clients[0]
        c.shards["train"] = Shard(np.zeros((0, 1), dtype=np.int64), np.zeros(0))
        (up,) = train_one(c, server, ExperimentConfig())
        assert up.skipped and up.tensors == {} and up.n_examples == 0


class TestAggregate:
    def test_mean_matches_brute_force(self):
        _, arch = make_world()
        server = make_server(arch, seed=0)
        client = ClientState(0, np.zeros(2, dtype=np.int64), {"ua0": 0}, {}, {})
        shared = upload_names(server, client)
        rng = np.random.default_rng(0)
        uploads = []
        for uid in range(3):
            tensors = {n: rng.normal(size=server.tensors[n].shape) for n in shared}
            uploads.append(Upload(uid, tensors, 4, {"ua0": 0}))
        out = aggregate_uploads(batch_of(uploads, server), server)
        for n in shared:
            brute = sum(u.tensors[n] for u in uploads) / 3.0
            assert np.max(np.abs(out.tensors[n] - brute)) < 1e-12

    def test_fixed_point(self):
        _, arch = make_world()
        server = make_server(arch, seed=1)
        shared = [n for n, t in server.tags.items() if t == SHARED]
        uploads = [Upload(uid, {n: server.tensors[n].copy() for n in shared}, 4, {})
                   for uid in range(3)]
        out = aggregate_uploads(batch_of(uploads, server), server)
        for n in server.tensors:
            assert np.allclose(out.tensors[n], server.tensors[n], atol=1e-15)

    def test_group_adapters_average_over_members_only(self):
        _, arch = make_world()
        ps = make_server(arch, seed=0)

        def upload(uid, g, value):
            # the client's whole group segment, every value `value`
            names = tensor_names(ps, f"adapter/group/ua0/{g}/*")
            tensors = {n: np.full(ps.tensors[n].shape, value) for n in names}
            return Upload(uid, tensors, 4, {"ua0": g})

        # clients 0 and 1 in group 0, client 2 in group 1, nobody in group 2
        ups = [upload(0, 0, 1.0), upload(1, 0, 3.0), upload(2, 1, 9.0)]
        out = aggregate_uploads(batch_of(ups, ps), ps)
        for n in tensor_names(ps, "adapter/group/ua0/0/*"):
            assert np.all(out.tensors[n] == 2.0), n
        for n in tensor_names(ps, "adapter/group/ua0/1/*"):
            assert np.all(out.tensors[n] == 9.0), n
        for n in tensor_names(ps, "adapter/group/ua0/2/*"):
            assert np.array_equal(out.tensors[n], ps.tensors[n]), n

    def test_permutation_invariance(self):
        _, arch = make_world()
        server = make_server(arch, seed=2)
        shared = [n for n, t in server.tags.items() if t == SHARED]
        rng = np.random.default_rng(5)
        uploads = [Upload(uid, {n: rng.normal(size=server.tensors[n].shape)
                                for n in shared}, 4, {}) for uid in range(5)]
        a = aggregate_uploads(batch_of(uploads, server), server)
        b = aggregate_uploads(batch_of(list(reversed(uploads)), server), server)
        for n in shared:
            assert np.max(np.abs(a.tensors[n] - b.tensors[n])) < 1e-12

    def test_all_skipped_rejected(self):
        _, arch = make_world()
        server = make_server(arch, seed=0)
        with pytest.raises(FederationError):
            aggregate_uploads(batch_of([Upload(0, {}, 0, {}, skipped=True)], server), server)


class TestAggregateUploads:
    """The batched aggregation against the per-client oracle `aggregate`."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_per_client_oracle(self, data):
        # two grouping attributes (3 and 2 groups); rows in any order, and
        # groups with no member keep their tensors
        _, arch = make_world()
        arch = replace(arch, group_attrs=("ua0", "ua1"))
        policy = data.draw(st.sampled_from(["fedpa", "full"]), label="policy")
        server = partition(init_params(arch, 0), RULES[policy])
        groups = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=7),
                           label="groups")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        uploads = []
        for uid, (g0, g1) in enumerate(groups):
            client = ClientState(uid, np.zeros(2, dtype=np.int64), {"ua0": g0, "ua1": g1}, {}, {})
            tensors = {n: rng.normal(size=server.tensors[n].shape)
                       for n in upload_names(server, client)}
            uploads.append(Upload(uid, tensors, 4, client.groups))
        got = aggregate_uploads(batch_of(uploads, server), server)
        want = aggregate(uploads, server)
        for name, t in want.tensors.items():
            assert got.tensors[name].tobytes() == t.tobytes(), name

    def test_frozen_group_adapters_rejected(self):
        # rows laid out as the cohort of a server that shares the group
        # adapters, aggregated into one whose group 1 adapter is frozen
        _, arch = make_world()
        ps = make_server(arch, seed=0)
        ups = []
        for uid, g in ((4, 0), (7, 1)):
            client = ClientState(uid, np.zeros(2, dtype=np.int64), {"ua0": g}, {}, {})
            ups.append(Upload(uid, {n: ps.tensors[n] for n in upload_names(ps, client)}, 3, client.groups))
        server = ParamSet(arch, ps.tensors, {**ps.tags, "adapter/group/ua0/1/0/A": FROZEN})
        with pytest.raises(FederationError, match="group adapters of 'ua0' carry different or frozen partition tags"):
            aggregate_uploads(batch_of(ups, ps), server)

    def test_rows_not_of_the_server_cohort_rejected(self):
        _, arch = make_world()
        ps = make_server(arch, seed=0)
        batch = batch_of([Upload(0, {}, 4, {}), Upload(1, {}, 4, {})], ps)
        with pytest.raises(FederationError, match=r"are not 2 rows of \d+ scalars"):
            aggregate_uploads(replace(batch, shared=batch.shared[:, 1:]), ps)
        with pytest.raises(FederationError, match=r"are not 2 rows of \d+ scalars"):
            aggregate_uploads(replace(batch, shared=batch.shared[:1]), ps)


def eval_fixture():
    """Tiny transparent model: score depends only on the item attribute.

    item attr 0 -> prob 0.5 (not a predicted positive), attr 1 -> prob
    sigmoid(1) ~ 0.731 (predicted positive).
    """
    us = AttributeSchema(("u",), (1,))
    it = AttributeSchema(("v",), (2,))
    arch = Arch(us, it, embed_dim=1, mlp_hidden=(), gate_mode="none",
                use_user_adapter=False, group_attrs=())
    ps = init_params(arch, 0)
    ps = ps.with_tensors({
        "user_emb/u": np.zeros((1, 1)),
        "item_emb/v": np.array([[0.0], [1.0]]),
        "mlp/0/W": np.array([[0.0, 1.0]]),
        "mlp/0/b": np.zeros(1),
    })

    def client(uid, item_attrs, labels):
        shard = Shard(np.array(item_attrs, dtype=np.int64).reshape(-1, 1),
                      np.array(labels, dtype=float))
        empty = Shard(np.zeros((0, 1), dtype=np.int64), np.zeros(0))
        return ClientState(uid, np.zeros(1, dtype=np.int64), {},
                           {"train": empty, "val": shard, "test": empty}, {})

    return ps, client


def evaluate(ps, clients, split="val"):
    """evaluate_global on the clients stacked with all their shards."""
    return evaluate_global(ps, stack(clients, ps.arch, SPLIT_KEYS), split)


class TestEvaluateGlobal:
    def test_two_client_mean(self):
        ps, client = eval_fixture()
        # client 0: positive scores 0.731 > negative 0.5 -> AUC 1, precision 1
        # client 1: positive 0.5 < negative 0.731 -> AUC 0, precision 0
        clients = [client(0, [0, 1], [0, 1]), client(1, [0, 1], [1, 0])]
        ev = evaluate(ps, clients)
        assert ev.mean_auc == 0.5
        assert ev.mean_precision == 0.5
        assert ev.n_clients == 2 and ev.n_auc_valid == 2

    def test_single_class_client_excluded_from_auc(self):
        ps, client = eval_fixture()
        clients = [client(0, [0, 1], [0, 1]), client(1, [0], [1])]
        ev = evaluate(ps, clients)
        assert ev.mean_auc == 1.0
        assert ev.n_auc_valid == 1 and ev.n_clients == 2

    def test_all_undefined_raises(self):
        ps, client = eval_fixture()
        with pytest.raises(UndefinedMetricError):
            evaluate(ps, [client(0, [0], [1])])

    def test_empty_shard_client_ignored(self):
        ps, client = eval_fixture()
        empty = client(1, [], [])
        ev = evaluate(ps, [client(0, [0, 1], [0, 1]), empty])
        assert ev.n_clients == 1

    def test_non_finite_score_names_the_client(self):
        ps, client = eval_fixture()
        ps = ps.with_tensors({"item_emb/v": np.array([[0.0], [np.nan]])})
        clients = [client(3, [0, 0], [0, 1]), client(7, [0, 1], [0, 1])]
        with pytest.raises(FederationError, match="client 7 .*non-finite"):
            evaluate(ps, clients)

    def test_bad_split(self):
        ps, client = eval_fixture()
        with pytest.raises(ValueError):
            evaluate(ps, [client(0, [0], [1])], "nope")


class TestRunFederated:
    def run(self, seed=0, rounds=3, noise=None, policy="fedpa"):
        """The run's final server ParamSet, its round reports and its
        clients; `noise` is the Laplace scale of the upload noise, None for
        none."""
        ds, arch = make_world(seed=1)
        arrays = build_clients(ds, arch, seed=seed)
        server = make_server(arch, seed=seed, policy=policy)
        cfg = ExperimentConfig(rounds=rounds, local_epochs=1, fed_lr=0.05, fed_batch=8, seed=seed,
                               ldp_enabled=noise is not None, ldp_intensity=noise or 0.0)
        return (*run_federated(server, arrays, cfg), arrays)

    def test_zero_rounds_identity(self):
        ds, arch = make_world(seed=1)
        arrays = build_clients(ds, arch, seed=0)
        private = arrays.private.copy()
        server = make_server(arch)
        out, reports = run_federated(server, arrays, ExperimentConfig(rounds=0))
        assert reports == []
        assert arrays.private.tobytes() == private.tobytes()
        for n in server.tensors:
            assert np.array_equal(out.tensors[n], server.tensors[n])

    def test_round_reports(self):
        _, reports, arrays = self.run(rounds=3)
        assert [r.round for r in reports] == [0, 1, 2]
        assert all(r.n_participants == len(arrays.uids) for r in reports)
        assert all(r.val_auc is not None for r in reports)
        assert len({r.uploaded_per_client for r in reports}) == 1

    def test_frozen_tensors_unchanged(self):
        _, arch = make_world(seed=1)
        server = make_server(arch)
        frozen = {n: server.tensors[n].copy()
                  for n, t in server.tags.items() if t == FROZEN}
        out, _, _ = self.run(rounds=3)
        assert frozen  # fedpa really freezes something
        for n, t in out.tags.items():
            if t == FROZEN:
                assert np.array_equal(out.tensors[n], server.tensors[n])

    def test_deterministic_rerun(self):
        (a, ra, pa), (b, rb, pb) = self.run(seed=4, rounds=2), self.run(seed=4, rounds=2)
        assert pa.private.tobytes() == pb.private.tobytes()
        for n in a.tensors:
            assert np.array_equal(a.tensors[n], b.tensors[n])
        strip = lambda r: (r.round, r.n_participants, r.uploaded_per_client,
                           r.val_auc, r.val_precision, r.skipped)
        assert [strip(r) for r in ra] == [strip(r) for r in rb]

    def test_noise_changes_shared_only(self):
        a, _, _ = self.run(seed=4, rounds=2)
        b, _, _ = self.run(seed=4, rounds=2, noise=0.3)
        changed = [n for n in a.tensors if not np.array_equal(a.tensors[n], b.tensors[n])]
        assert changed
        assert all(a.tags[n] == SHARED for n in changed)

    def test_ldp_disabled_draws_no_noise(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("upload noise drawn with ldp.enabled = false")

        monkeypatch.setattr(federation, "noise_uploads", refuse)
        with pytest.raises(AssertionError):
            self.run(seed=4, rounds=1, noise=0.0)
        self.run(seed=4, rounds=1)

    def test_upload_size_below_full_policy(self):
        (_, r_fed, _), (full, r_full, _) = self.run(seed=2, rounds=1), self.run(seed=2, rounds=1, policy="full")
        assert 0 < r_fed[0].uploaded_per_client < r_full[0].uploaded_per_client
        # even under "full" a client only carries its own groups' adapters
        n_groups = full.arch.group_cards()["ua0"]
        per_group = count_matching(full, "adapter/group/ua0/0/*")
        expected = count_params(full) - (n_groups - 1) * per_group
        assert r_full[0].uploaded_per_client == expected

    def test_uploaded_count_closed_form(self):
        _, arch = make_world(seed=1)
        reports = self.run(seed=0, rounds=1)[1]
        ps = make_server(arch)
        shared_total = count_params(ps, tags=(SHARED,))
        # subtract the group adapters of the groups one client is not in
        n_groups = arch.group_cards()["ua0"]
        per_group = count_matching(ps, "adapter/group/ua0/0/*")
        expected = shared_total - (n_groups - 1) * per_group
        assert reports[0].uploaded_per_client == expected
