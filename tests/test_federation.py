from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.data import (
    AttributeSchema,
    SynthConfig,
    assign_groups,
    split_per_user_chronological,
    split_pretrain_federated,
    synth_generate,
)
from fedrec.federation import (
    ClientState,
    FedConfig,
    FederationError,
    PartitionPolicy,
    ServerState,
    Shard,
    UploadBatch,
    aggregate_uploads,
    build_clients,
    evaluate_global,
    pretrain,
    pretrain_examples,
    run_federated,
    select_clients,
    warm_start,
)
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
from fedrec.privacy import NoiseConfig
from helpers import Upload, aggregate, batch_of, train_cohort, upload_names, uploads_of, user_matrix


def make_world(seed=0):
    cfg = SynthConfig(n_users=16, n_items=15, user_attrs=(3, 2), item_attrs=(4,),
                      beta=1.0, interactions_per_user=12)
    ds = synth_generate(cfg, seed)
    ds = split_pretrain_federated(ds, 0.5, seed)
    ds, _ = split_per_user_chronological(ds)
    ga = assign_groups(ds, ["ua0"])
    arch = Arch(ds.user_schema, ds.item_schema, embed_dim=4, mlp_hidden=(6,),
                adapter_rank=2, gate_hidden=3, group_attrs=("ua0",))
    return ds, ga, arch


def make_server(arch, seed=0, policy="fedpa"):
    ps = PartitionPolicy.preset(policy).apply(init_params(arch, seed))
    return ServerState(ps)


class TestPartitionPolicy:
    def test_fedpa_tags(self):
        p = PartitionPolicy.preset("fedpa")
        assert p.tag_of("item_emb/ia0") == FROZEN
        assert p.tag_of("mlp/0/W") == FROZEN
        assert p.tag_of("adapter/user/0/A") == PRIVATE
        assert p.tag_of("user_emb/ua0") == SHARED
        assert p.tag_of("adapter/group/ua0/1/0/B") == SHARED
        assert p.tag_of("gate/0/W1") == SHARED

    def test_full_tags_everything_shared(self):
        p = PartitionPolicy.preset("full")
        for n in ("item_emb/x", "mlp/0/W", "adapter/user/0/A", "gate/0/W2"):
            assert p.tag_of(n) == SHARED

    def test_unknown_policy(self):
        with pytest.raises(FederationError):
            PartitionPolicy.preset("nope")

    def test_ambiguous_or_unmatched_tensor(self):
        p = PartitionPolicy("two", (("a/*", SHARED), ("a/b*", FROZEN)))
        with pytest.raises(FederationError):
            p.tag_of("a/b/c")
        with pytest.raises(FederationError):
            PartitionPolicy.preset("fedpa").tag_of("unheard/of")

    def test_apply_covers_every_tensor(self):
        _, _, arch = make_world()
        ps = PartitionPolicy.preset("fedpa").apply(init_params(arch, 0))
        assert set(ps.tags) == set(ps.tensors)
        assert all(t in (FROZEN, PRIVATE, SHARED) for t in ps.tags.values())


class TestPretrain:
    def test_loss_decreases(self):
        ds, _, arch = make_world()
        _, losses = pretrain(ds, arch, epochs=5, lr=0.3, batch_size=16, seed=0)
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    def test_zero_epochs_is_fresh_init(self):
        ds, _, arch = make_world()
        ps, losses = pretrain(ds, arch, epochs=0, lr=0.3, batch_size=16, seed=3)
        assert losses == []
        ref = init_params(arch.base(), 3)
        for n in ref.tensors:
            assert np.array_equal(ps.tensors[n], ref.tensors[n])

    def test_deterministic(self):
        ds, _, arch = make_world()
        a, la = pretrain(ds, arch, epochs=2, lr=0.3, batch_size=16, seed=1)
        b, lb = pretrain(ds, arch, epochs=2, lr=0.3, batch_size=16, seed=1)
        assert la == lb
        for n in a.tensors:
            assert np.array_equal(a.tensors[n], b.tensors[n])

    def test_examples_use_native_labels(self):
        ds, _, _ = make_world()
        _, _, y = pretrain_examples(ds, seed=0)
        # synthetic data carries 0/1 exposure labels, so no sampling happens
        assert set(np.unique(y)) == {0.0, 1.0}
        n_pre = sum(r.split == "pretrain" for r in ds.interactions)
        assert len(y) == n_pre


class TestWarmStart:
    def test_base_tensors_overlaid_bit_exact(self):
        ds, _, arch = make_world()
        base_ps, _ = pretrain(ds, arch, epochs=1, lr=0.3, batch_size=16, seed=0)
        ps = warm_start(arch, base_ps, seed=0)
        for n in base_ps.tensors:
            assert np.array_equal(ps.tensors[n], base_ps.tensors[n])
        # adapter/gate tensors exist on top
        assert ps.names("adapter/*") and ps.names("gate/*")

    def test_shape_mismatch_rejected(self):
        ds, _, arch = make_world()
        base_ps, _ = pretrain(ds, arch, epochs=0, lr=0.1, batch_size=16, seed=0)
        other = Arch(arch.user_schema, arch.item_schema, embed_dim=8, mlp_hidden=(6,),
                     group_attrs=("ua0",))
        with pytest.raises(ShapeError):
            warm_start(other, base_ps, seed=0)


class TestBuildClients:
    def test_one_client_per_federated_user(self):
        ds, ga, arch = make_world()
        clients = build_clients(ds, ga, arch, seed=0)
        fed_users = {r.user for r in ds.interactions if r.split != "pretrain"}
        assert {c.uid for c in clients} == fed_users

    def test_private_adapters_fresh_and_deterministic(self):
        ds, ga, arch = make_world()
        a = build_clients(ds, ga, arch, seed=0)
        b = build_clients(ds, ga, arch, seed=0)
        for ca, cb in zip(a, b):
            assert set(ca.private) == set(cb.private)
            for n in ca.private:
                assert np.array_equal(ca.private[n], cb.private[n])
                if n.endswith("/B"):
                    assert np.all(ca.private[n] == 0.0)

    def test_groups_match_assignment(self):
        ds, ga, arch = make_world()
        for c in build_clients(ds, ga, arch, seed=0):
            assert c.groups == {"ua0": ds.users[c.uid][0]}


class TestSelectClients:
    def fake_clients(self, n):
        return [ClientState(i, np.zeros(1, dtype=int), {}, {}, {}) for i in range(n)]

    def test_full_fraction_is_everyone(self):
        cs = self.fake_clients(7)
        assert list(select_clients(cs, 1.0, 0, 0)) == list(range(7))

    def test_half_fraction_ceil(self):
        picked = select_clients(self.fake_clients(7), 0.5, 0, 0)
        assert len(picked) == 4
        assert list(picked) == sorted(picked)

    def test_deterministic_per_round(self):
        cs = self.fake_clients(10)
        a = list(select_clients(cs, 0.3, 2, 5))
        b = list(select_clients(cs, 0.3, 2, 5))
        c_ = list(select_clients(cs, 0.3, 3, 5))
        assert a == b
        assert a != c_ or True  # different rounds may coincide, never required

    def test_bad_fraction(self):
        with pytest.raises(FederationError):
            select_clients(self.fake_clients(3), 0.0, 0, 0)


def train_one(client, server, cfg, seed=0):
    """One client's upload from a cohort round of that client alone."""
    return uploads_of(train_cohort([client], server.params, cfg, 0, seed), [client], server.params.arch)


class TestClientLocalTrain:
    def setup_world(self):
        ds, ga, arch = make_world()
        clients = build_clients(ds, ga, arch, seed=0)
        server = make_server(arch, seed=0)
        return clients, server

    def test_upload_contains_only_own_shared_tensors(self):
        clients, server = self.setup_world()
        c = clients[0]
        cfg = FedConfig(local_epochs=1, lr=0.05, batch_size=8)
        (up,) = train_one(c, server, cfg)
        names = set(up.tensors)
        assert all(server.params.tags[n] == SHARED for n in names)
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
        cfg = FedConfig(local_epochs=0, lr=0.05, batch_size=8)
        (up,) = train_one(c, server, cfg)
        for n, t in up.tensors.items():
            assert np.array_equal(t, server.params.tensors[n])
        for n in before:
            assert np.array_equal(c.private[n], before[n])

    def test_single_step_matches_model_core_oracle(self):
        # one epoch, one batch: the upload must equal a single hand-applied
        # forward/backward/sgd_step on the overlaid parameters
        clients, server = self.setup_world()
        c = clients[0]
        n = len(c.shards["train"])
        cfg = FedConfig(local_epochs=1, lr=0.1, batch_size=max(n, 1))
        ps = server.params.with_tensors({k: v.copy() for k, v in c.private.items()})
        rng = np.random.default_rng([0, 0, c.uid, 1])
        order = rng.permutation(n)
        UA = user_matrix(c, n)
        probs, cache = forward_batch(ps, UA[order], c.shards["train"].items[order],
                                     c.groups, want_cache=True)
        expected = sgd_step(ps, backward_batch(ps, cache, c.shards["train"].labels[order]), 0.1)
        (up,) = train_one(c, server, cfg)
        for name, t in up.tensors.items():
            assert np.allclose(t, expected.tensors[name], atol=1e-14), name
        for name, t in c.private.items():
            assert np.allclose(t, expected.tensors[name], atol=1e-14), name

    def test_empty_train_shard_skipped(self):
        clients, server = self.setup_world()
        c = clients[0]
        c.shards["train"] = Shard(np.zeros((0, 1), dtype=np.int64), np.zeros(0))
        (up,) = train_one(c, server, FedConfig())
        assert up.skipped and up.tensors == {} and up.n_examples == 0


class TestAggregate:
    def test_mean_matches_brute_force(self):
        _, _, arch = make_world()
        server = make_server(arch, seed=0)
        shared = [n for n, t in server.params.tags.items() if t == SHARED]
        rng = np.random.default_rng(0)
        uploads = []
        for uid in range(3):
            tensors = {n: rng.normal(size=server.params.tensors[n].shape) for n in shared}
            uploads.append(Upload(uid, tensors, 4, {}))
        out = aggregate_uploads(batch_of(uploads, arch), server)
        for n in shared:
            brute = sum(u.tensors[n] for u in uploads) / 3.0
            assert np.max(np.abs(out.params.tensors[n] - brute)) < 1e-12

    def test_fixed_point(self):
        _, _, arch = make_world()
        server = make_server(arch, seed=1)
        shared = [n for n, t in server.params.tags.items() if t == SHARED]
        uploads = [Upload(uid, {n: server.params.tensors[n].copy() for n in shared}, 4, {})
                   for uid in range(3)]
        out = aggregate_uploads(batch_of(uploads, arch), server)
        for n in server.params.tensors:
            assert np.allclose(out.params.tensors[n], server.params.tensors[n], atol=1e-15)

    def test_group_adapters_average_over_members_only(self):
        _, _, arch = make_world()
        server = make_server(arch, seed=0)
        name = "adapter/group/ua0/0/0/A"
        other = "adapter/group/ua0/1/0/A"
        shape = server.params.tensors[name].shape
        # clients 0 and 1 in group 0, client 2 in group 1
        ups = [
            Upload(0, {name: np.full(shape, 1.0)}, 4, {"ua0": 0}),
            Upload(1, {name: np.full(shape, 3.0)}, 4, {"ua0": 0}),
            Upload(2, {other: np.full(shape, 9.0)}, 4, {"ua0": 1}),
        ]
        out = aggregate_uploads(batch_of(ups, arch), server)
        assert np.all(out.params.tensors[name] == 2.0)
        assert np.all(out.params.tensors[other] == 9.0)

    def test_permutation_invariance(self):
        _, _, arch = make_world()
        server = make_server(arch, seed=2)
        shared = [n for n, t in server.params.tags.items() if t == SHARED]
        rng = np.random.default_rng(5)
        uploads = [Upload(uid, {n: rng.normal(size=server.params.tensors[n].shape)
                                for n in shared}, 4, {}) for uid in range(5)]
        a = aggregate_uploads(batch_of(uploads, arch), server)
        b = aggregate_uploads(batch_of(list(reversed(uploads)), arch), server)
        for n in shared:
            assert np.max(np.abs(a.params.tensors[n] - b.params.tensors[n])) < 1e-12

    def test_non_shared_upload_rejected(self):
        _, _, arch = make_world()
        server = make_server(arch, seed=0)
        up = Upload(0, {"mlp/0/W": np.zeros_like(server.params.tensors["mlp/0/W"])}, 4, {})
        with pytest.raises(FederationError):
            aggregate_uploads(batch_of([up], arch), server)

    def test_all_skipped_rejected(self):
        _, _, arch = make_world()
        server = make_server(arch, seed=0)
        with pytest.raises(FederationError):
            aggregate_uploads(batch_of([Upload(0, {}, 0, {}, skipped=True)], arch), server)


class TestAggregateUploads:
    """The batched aggregation against the per-client oracle `aggregate`."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_per_client_oracle(self, data):
        # two grouping attributes (3 and 2 groups); rows in any order, and
        # groups with no member keep their tensors
        _, _, arch = make_world()
        arch = replace(arch, group_attrs=("ua0", "ua1"))
        policy = data.draw(st.sampled_from(["fedpa", "full"]), label="policy")
        server = ServerState(PartitionPolicy.preset(policy).apply(init_params(arch, 0)))
        groups = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=7),
                           label="groups")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        uploads = []
        for uid, (g0, g1) in enumerate(groups):
            client = ClientState(uid, np.zeros(2, dtype=np.int64), {"ua0": g0, "ua1": g1}, {}, {})
            tensors = {n: rng.normal(size=server.params.tensors[n].shape)
                       for n in upload_names(server.params, client)}
            uploads.append(Upload(uid, tensors, 4, client.groups))
        got = aggregate_uploads(batch_of(uploads, arch), server).params
        want = aggregate(uploads, server).params
        for name, t in want.tensors.items():
            assert got.tensors[name].tobytes() == t.tobytes(), name

    def test_non_shared_rows_rejected_naming_a_client(self):
        _, _, arch = make_world()
        server = make_server(arch, seed=0)
        ps = server.params
        private = UploadBatch(np.array([4, 7]), np.array([3, 3]), np.array([[0], [1]]),
                              {"adapter/user/0/A": np.zeros((2, *ps.tensors["adapter/user/0/A"].shape))})
        with pytest.raises(FederationError, match="client 4 .*'adapter/user/0/A'"):
            aggregate_uploads(private, server)
        # group 1's adapter frozen: only its member's row is at fault
        frozen = "adapter/group/ua0/1/0/A"
        server = ServerState(ParamSet(arch, ps.tensors, {**ps.tags, frozen: FROZEN}))
        own = UploadBatch(np.array([4, 7]), np.array([3, 3]), np.array([[0], [1]]),
                          {"adapter/group/ua0/own/0/A": np.zeros((2, *ps.tensors[frozen].shape))})
        with pytest.raises(FederationError, match=f"client 7 .*'{frozen}'"):
            aggregate_uploads(own, server)


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


class TestEvaluateGlobal:
    def test_two_client_mean(self):
        ps, client = eval_fixture()
        # client 0: positive scores 0.731 > negative 0.5 -> AUC 1, precision 1
        # client 1: positive 0.5 < negative 0.731 -> AUC 0, precision 0
        clients = [client(0, [0, 1], [0, 1]), client(1, [0, 1], [1, 0])]
        ev = evaluate_global(ps, clients, "val")
        assert ev.mean_auc == 0.5
        assert ev.mean_precision == 0.5
        assert ev.n_clients == 2 and ev.n_auc_valid == 2 and ev.n_precision_valid == 2

    def test_single_class_client_excluded_from_auc(self):
        ps, client = eval_fixture()
        clients = [client(0, [0, 1], [0, 1]), client(1, [0], [1])]
        ev = evaluate_global(ps, clients, "val")
        assert ev.mean_auc == 1.0
        assert ev.n_auc_valid == 1 and ev.n_clients == 2

    def test_all_undefined_raises(self):
        ps, client = eval_fixture()
        with pytest.raises(UndefinedMetricError):
            evaluate_global(ps, [client(0, [0], [1])], "val")

    def test_empty_shard_client_ignored(self):
        ps, client = eval_fixture()
        empty = client(1, [], [])
        ev = evaluate_global(ps, [client(0, [0, 1], [0, 1]), empty], "val")
        assert ev.n_clients == 1

    def test_non_finite_score_names_the_client(self):
        ps, client = eval_fixture()
        ps = ps.with_tensors({"item_emb/v": np.array([[0.0], [np.nan]])})
        clients = [client(3, [0, 0], [0, 1]), client(7, [0, 1], [0, 1])]
        with pytest.raises(FederationError, match="client 7 .*non-finite"):
            evaluate_global(ps, clients, "val")

    def test_bad_split(self):
        ps, client = eval_fixture()
        with pytest.raises(ValueError):
            evaluate_global(ps, [client(0, [0], [1])], "nope")


class TestRunFederated:
    def run(self, seed=0, rounds=3, noise=None, policy="fedpa"):
        ds, ga, arch = make_world(seed=1)
        clients = build_clients(ds, ga, arch, seed=seed)
        server = make_server(arch, seed=seed, policy=policy)
        cfg = FedConfig(rounds=rounds, local_epochs=1, lr=0.05, batch_size=8)
        return run_federated(server.params, clients, cfg, noise, seed=seed)

    def test_zero_rounds_identity(self):
        ds, ga, arch = make_world(seed=1)
        clients = build_clients(ds, ga, arch, seed=0)
        server = make_server(arch)
        out, _, reports = run_federated(server.params, clients, FedConfig(rounds=0), None, 0)
        assert reports == []
        for n in server.params.tensors:
            assert np.array_equal(out.params.tensors[n], server.params.tensors[n])

    def test_round_reports(self):
        server, clients, reports = self.run(rounds=3)
        assert [r.round for r in reports] == [0, 1, 2]
        assert all(r.n_participants == len(clients) for r in reports)
        assert all(r.val_auc is not None for r in reports)
        assert len({r.uploaded_per_client for r in reports}) == 1

    def test_frozen_tensors_unchanged(self):
        ds, ga, arch = make_world(seed=1)
        clients = build_clients(ds, ga, arch, seed=0)
        server = make_server(arch)
        frozen = {n: server.params.tensors[n].copy()
                  for n, t in server.params.tags.items() if t == FROZEN}
        out, _, _ = self.run(rounds=3)
        assert frozen  # fedpa really freezes something
        for n, t in out.params.tags.items():
            if t == FROZEN:
                assert np.array_equal(out.params.tensors[n], server.params.tensors[n])

    def test_deterministic_rerun(self):
        a, _, ra = self.run(seed=4, rounds=2)
        b, _, rb = self.run(seed=4, rounds=2)
        for n in a.params.tensors:
            assert np.array_equal(a.params.tensors[n], b.params.tensors[n])
        strip = lambda r: (r.round, r.n_participants, r.uploaded_per_client,
                           r.val_auc, r.val_precision, r.skipped)
        assert [strip(r) for r in ra] == [strip(r) for r in rb]

    def test_noise_changes_shared_only(self):
        a, _, _ = self.run(seed=4, rounds=2)
        b, _, _ = self.run(seed=4, rounds=2, noise=NoiseConfig(0.3, enabled=True))
        changed = [n for n in a.params.tensors
                   if not np.array_equal(a.params.tensors[n], b.params.tensors[n])]
        assert changed
        assert all(a.params.tags[n] == SHARED for n in changed)

    def test_upload_size_below_full_policy(self):
        fed, _, r_fed = self.run(seed=2, rounds=1)
        full, _, r_full = self.run(seed=2, rounds=1, policy="full")
        assert 0 < r_fed[0].uploaded_per_client < r_full[0].uploaded_per_client
        # even under "full" a client only carries its own groups' adapters
        n_groups = full.params.arch.group_cards()["ua0"]
        per_group = count_params(full.params, pattern="adapter/group/ua0/0/*")
        expected = count_params(full.params) - (n_groups - 1) * per_group
        assert r_full[0].uploaded_per_client == expected

    def test_uploaded_count_closed_form(self):
        ds, ga, arch = make_world(seed=1)
        _, _, reports = self.run(seed=0, rounds=1)
        ps = make_server(arch).params
        shared_total = count_params(ps, tags=(SHARED,))
        # subtract the group adapters of the groups one client is not in
        n_groups = arch.group_cards()["ua0"]
        per_group = count_params(ps, pattern="adapter/group/ua0/0/*")
        expected = shared_total - (n_groups - 1) * per_group
        assert reports[0].uploaded_per_client == expected
