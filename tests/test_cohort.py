"""Cohort local training against the per-client oracle, and its invariants."""
import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec import model
from fedrec.data import GroupAssignment, SynthConfig, assign_groups
from fedrec.experiment import ExperimentConfig, arm_settings, build_arch, prepare_dataset
from fedrec.federation import (
    ClientArrays,
    FedConfig,
    FederationError,
    PartitionPolicy,
    ServerState,
    Shard,
    _cohort_groups,
    _cohort_params,
    aggregate_uploads,
    build_clients,
    evaluate_global,
)
from fedrec.metrics import UndefinedMetricError, auc
from fedrec.model import FROZEN, ParamSet, forward_batch, init_params
from helpers import (
    aggregate,
    batch_of,
    client_local_train,
    randomized_params,
    train_cohort,
    uploads_of,
    user_matrix,
)

SEED = 3
# 18 train rows per client: batches of 8, 8 and 2
FED = FedConfig(local_epochs=2, lr=0.3, batch_size=8)


def uniform_cfg():
    """Synthetic data: every client has 30 interactions, so equal shards."""
    cfg = ExperimentConfig(
        seed=SEED, group_attrs=("ua0",), embed_dim=4, mlp_hidden=(6,), gate_hidden=3
    )
    cfg.synth = SynthConfig(
        n_users=24, n_items=20, user_attrs=(3, 2), item_attrs=(4,), beta=1.0,
        interactions_per_user=30,
    )
    return cfg


def ragged_cfg(tmp_path):
    """File data whose users have 5 to 29 interactions, so train shards of 3
    to 18 rows: some shorter than one batch of 8, most ending in a short batch."""
    rng = np.random.default_rng(0)
    users = ["user_id,ua0,ua1"] + [f"{u},{u % 3},{u % 2}" for u in range(30)]
    items = ["item_id,ia0"] + [f"{i},{i % 4}" for i in range(12)]
    rows = ["user_id,item_id,timestamp,label"]
    for u in range(30):
        for t in range(5 + (7 * u) % 25):
            rows.append(f"{u},{rng.integers(12)},{t},{int(rng.random() < 0.4)}")
    paths = []
    for name, lines in (("users", users), ("items", items), ("interactions", rows)):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    return ExperimentConfig(
        seed=SEED, source="files", users_path=paths[0], items_path=paths[1],
        interactions_path=paths[2], group_attrs=("ua0",), embed_dim=4, mlp_hidden=(6,),
        gate_hidden=3,
    )


def world(cfg, arm="fedpa", policy=None):
    """Server ParamSet (every tensor perturbed off its init, so adapters and
    gates are live) and fresh clients for one arm."""
    ds, _ = prepare_dataset(cfg)
    _, arm_policy, _ = arm_settings(cfg, arm)
    arch = build_arch(cfg, ds, arm)
    ps = randomized_params(init_params(arch, SEED), SEED, scale=0.3)
    ps = PartitionPolicy.preset(policy or arm_policy).apply(ps)
    assignment = assign_groups(ds, arch.group_attrs) if arch.group_attrs else GroupAssignment({})
    return ps, build_clients(ds, assignment, arch, SEED)


@functools.lru_cache(maxsize=None)
def uniform_world():
    return world(uniform_cfg())


def cohort_uploads(clients, ps, cfg=FED, round_index=0):
    """Per-client Uploads of one cohort round of `clients`."""
    return uploads_of(train_cohort(clients, ps, cfg, round_index, SEED), clients, ps.arch)


def stacked(clients, ps, split):
    """The clients' cohort ParamSet for training, and their `split` shards."""
    arrays = ClientArrays.stack(clients, ps.arch, (split,))
    rows = np.arange(len(clients))
    return _cohort_params(ps, arrays, rows, train=True), arrays.shards[split].rows(rows)


def assert_uploads_match(got, want, atol):
    assert [u.uid for u in got] == [u.uid for u in want]
    for a, b in zip(got, want):
        assert (a.skipped, a.n_examples, a.groups) == (b.skipped, b.n_examples, b.groups)
        assert sorted(a.tensors) == sorted(b.tensors)
        for n in a.tensors:
            close(a.tensors[n], b.tensors[n], atol, f"client {a.uid} {n}")


def close(a, b, atol, what):
    if atol == 0:
        assert np.array_equal(a, b), what
    else:
        assert np.max(np.abs(a - b), initial=0.0) <= atol, what


def against_oracle(ps, clients, rounds=2, atol=0.0):
    """Train the same clients per client (oracle) and as one cohort for a few
    aggregated rounds; uploads and private tensors must agree."""
    lone, cohort = copy.deepcopy(clients), copy.deepcopy(clients)
    s_lone, s_cohort = ServerState(ps), ServerState(ps)
    for r in range(rounds):
        want = [client_local_train(c, s_lone.params, FED, r, SEED) for c in lone]
        batch = train_cohort(cohort, s_cohort.params, FED, r, SEED)
        got = uploads_of(batch, cohort, ps.arch)
        assert_uploads_match(got, want, atol)
        for a, b in zip(cohort, lone):
            for n in a.private:
                close(a.private[n], b.private[n], atol, f"private {n} of client {a.uid}")
        s_lone, s_cohort = aggregate(want, s_lone), aggregate_uploads(batch, s_cohort)
    return got


class TestAgainstPerClientOracle:
    @pytest.mark.parametrize(
        "arm,policy",
        [("fedpa", None), ("fedpa", "full"), ("user_only", None), ("group_only", None),
         ("no_gate_uniform", None), ("no_adapter", None)],
    )
    def test_uniform_shards_bit_equal(self, arm, policy):
        ps, clients = world(uniform_cfg(), arm, policy)
        assert len({len(c.shards["train"]) for c in clients}) == 1
        against_oracle(ps, clients)

    def test_ragged_file_shards_within_1e12(self, tmp_path):
        ps, clients = world(ragged_cfg(tmp_path))
        sizes = [len(c.shards["train"]) for c in clients]
        assert min(sizes) < FED.batch_size < max(sizes)
        empty = clients[1]
        empty.shards["train"] = Shard(np.zeros((0, 1), dtype=np.int64), np.zeros(0))
        got = against_oracle(ps, clients, atol=1e-12)
        assert got[1].skipped and got[1].tensors == {} and got[1].n_examples == 0
        assert sum(u.skipped for u in got) == 1

    def test_evaluate_global_equals_per_client_scoring(self, tmp_path):
        ps, clients = world(ragged_cfg(tmp_path))
        for c in clients:  # distinct private adapters
            c.private = {n: t + 0.1 * c.uid for n, t in c.private.items()}
        aucs = []
        for c in clients:
            shard = c.shards["val"]
            lone = ps.with_tensors(c.private)
            probs, _ = forward_batch(lone, user_matrix(c, len(shard)), shard.items, c.groups)
            try:
                aucs.append(auc(probs, shard.labels))
            except UndefinedMetricError:
                pass
        ev = evaluate_global(ps, clients, "val")
        assert ev.n_auc_valid == len(aucs) and ev.n_clients == len(clients)
        assert abs(ev.mean_auc - float(np.mean(aucs))) <= 1e-12


def test_group_adapters_with_mixed_tags_rejected():
    # the cohort trains every client's own group adapter under one tag
    ps, clients = uniform_world()
    tags = {n: FROZEN if n.startswith("adapter/group/ua0/0/") else t for n, t in ps.tags.items()}
    with pytest.raises(FederationError, match="partition tags"):
        train_cohort(copy.deepcopy(clients), ParamSet(ps.arch, ps.tensors, tags), FED, 0, SEED)


def test_stacked_forward_without_cache_equals_cached():
    ps, clients = uniform_world()
    cohort = copy.deepcopy(clients[:5])
    for c in cohort:  # distinct, live user adapters
        c.private = {n: t + 0.1 * (c.uid + 1) for n, t in c.private.items()}
    cohort_ps, (UA, VA, _, _) = stacked(cohort, ps, "val")
    groups = _cohort_groups(ps.arch)
    cached, _ = forward_batch(cohort_ps, UA, VA, groups, want_cache=True)
    probs, cache = forward_batch(cohort_ps, UA, VA, groups)
    assert cache is None and probs.shape == UA.shape[:2]
    assert np.array_equal(probs, cached)


class TestCohortProperties:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_uploads_independent_of_cohort_order_and_split(self, data):
        ps, clients = uniform_world()
        whole = {u.uid: u for u in cohort_uploads(copy.deepcopy(clients), ps)}
        perm = data.draw(st.permutations(range(len(clients))), label="order")
        cuts = sorted(data.draw(st.sets(st.integers(1, len(clients) - 1), max_size=4), label="cuts"))
        shuffled = [copy.deepcopy(clients[i]) for i in perm]
        got = []
        for lo, hi in zip([0, *cuts], [*cuts, len(shuffled)]):
            got += cohort_uploads(shuffled[lo:hi], ps)
        assert_uploads_match(sorted(got, key=lambda u: u.uid), [whole[c.uid] for c in clients], 0.0)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_aggregate_invariant_to_upload_order(self, data):
        ps, clients = uniform_world()
        uploads = cohort_uploads(copy.deepcopy(clients), ps)
        perm = data.draw(st.permutations(range(len(uploads))))
        a = aggregate_uploads(batch_of(uploads, ps.arch), ServerState(ps)).params
        b = aggregate_uploads(batch_of([uploads[i] for i in perm], ps.arch), ServerState(ps)).params
        for n in a.tensors:
            close(a.tensors[n], b.tensors[n], 1e-12, n)


class TestLocalStepClosedForm:
    def test_one_round_steps_and_rows(self, tmp_path, monkeypatch):
        # local_epochs x ceil(max train rows / batch) steps, and every client
        # sees exactly its own shard once per epoch
        ps, clients = world(ragged_cfg(tmp_path))
        steps, rows = [], []
        sgd_step, backward_batch = model.sgd_step, model.backward_batch

        def counting_step(*args, **kwargs):
            steps.append(1)
            return sgd_step(*args, **kwargs)

        def counting_backward(ps, cache, labels, valid=None):
            rows.append(valid.sum(axis=-1))
            return backward_batch(ps, cache, labels, valid)

        monkeypatch.setattr(model, "sgd_step", counting_step)
        monkeypatch.setattr(model, "backward_batch", counting_backward)
        cfg = FedConfig(local_epochs=3, lr=0.3, batch_size=8)
        train_cohort(clients, ps, cfg, 0, SEED)

        sizes = np.array([len(c.shards["train"]) for c in clients])
        per_epoch = math.ceil(sizes.max() / cfg.batch_size)
        assert len(steps) == cfg.local_epochs * per_epoch
        for e in range(cfg.local_epochs):
            assert np.array_equal(np.sum(rows[e * per_epoch : (e + 1) * per_epoch], axis=0), sizes)

    def test_client_without_valid_rows_gets_zero_gradients(self):
        ps, clients = uniform_world()
        cohort = copy.deepcopy(clients[:3])
        for c in cohort:  # live user adapters (W_b starts at zero)
            c.private = {n: t + 0.1 for n, t in c.private.items()}
        cohort_ps, (UA, VA, y, _) = stacked(cohort, ps, "train")
        valid = np.ones(y.shape, dtype=bool)
        valid[1] = False
        probs, cache = forward_batch(cohort_ps, UA, VA, _cohort_groups(ps.arch), want_cache=True)
        grads = model.backward_batch(cohort_ps, cache, y, valid)
        assert grads
        for name, g in grads.items():
            assert g.shape == cohort_ps.tensors[name].shape and g.shape[0] == 3, name
            assert not np.any(g[1]), name
            assert np.any(g[0]) or np.any(g[2]), name
