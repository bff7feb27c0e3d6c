"""Golden results: exact losses and tensor digests of small training runs.

The values were recorded before the SGD step kernel was rewritten (one
gather, one scatter, a layout plan per epoch) and, for the noised rounds,
before evaluation was batched and the upload noise drawn in one call; they
pin those rewrites, and any later one, to the same floating-point results
bit for bit. They hold for numpy 2.4 with OpenBLAS 0.3.31 on x86-64; another
BLAS build may change the last bits of a matrix product, and with them every
digest.
"""
import hashlib
from dataclasses import replace

import numpy as np

from fedrec.data import SynthConfig, synth_generate
from fedrec.distill import DistillConfig, distill
from fedrec.federation import (
    EvalSummary,
    ServerState,
    aggregate,
    evaluate_global,
    local_train,
    pretrain,
    pretrain_examples,
    run_federated,
)
from fedrec.model import Arch
from fedrec.privacy import NoiseConfig
from test_cohort import FED, SEED, ragged_cfg, world


def digest(tensors):
    """SHA-256 over the tensors' names, shapes and float64 bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        t = np.ascontiguousarray(tensors[name], dtype=np.float64)
        h.update(f"{name}{t.shape}".encode())
        h.update(t.tobytes())
    return h.hexdigest()


def base_world():
    """Pretrained (16, 8) base model on 30 synthetic users, and its data."""
    cfg = SynthConfig(n_users=30, n_items=20, user_attrs=(3, 2), item_attrs=(4, 3),
                      beta=1.0, interactions_per_user=15)
    ds = synth_generate(cfg, 1)
    for r in ds.interactions:
        r.split = "pretrain"
    arch = Arch(ds.user_schema, ds.item_schema, embed_dim=8, mlp_hidden=(16, 8),
                gate_mode="none", use_user_adapter=False, group_attrs=())
    ps, losses = pretrain(ds, arch, epochs=4, lr=0.3, batch_size=32, seed=1)
    return ds, ps, losses


def test_pretrain_golden():
    _, ps, losses = base_world()
    assert losses == PRETRAIN_LOSSES
    assert digest(ps.tensors) == PRETRAIN_DIGEST


def test_distill_golden():
    ds, teacher, _ = base_world()
    UA, VA, y = pretrain_examples(ds, 1)
    cfg = DistillConfig(embed_dim=4, mlp_hidden=(8,), epochs=3, lr=0.3, batch_size=32)
    student, history = distill(teacher, UA, VA, y, cfg)
    assert history.train_loss == DISTILL_LOSSES
    assert digest(student.tensors) == DISTILL_DIGEST


def test_fedpa_cohort_rounds_golden(tmp_path):
    # two aggregated rounds of every client on ragged file-data shards
    ps, clients = world(ragged_cfg(tmp_path))
    server = ServerState(ps)
    for r in range(2):
        server = aggregate(local_train(clients, server.params, FED, r, SEED), server)
    assert digest(server.params.tensors) == FEDPA_SERVER_DIGEST
    private = {f"{c.uid}/{n}": t for c in clients for n, t in c.private.items()}
    assert digest(private) == FEDPA_PRIVATE_DIGEST


def test_fedpa_ldp_eval_golden(tmp_path):
    # three noised rounds on ragged shards, every round evaluated: pins the
    # per-client scoring of every evaluation and the upload noise draws
    ps, clients = world(ragged_cfg(tmp_path))
    cfg = replace(FED, rounds=3, eval_every=1)
    server, clients, reports = run_federated(ps, clients, cfg, NoiseConfig(0.2, enabled=True), SEED)
    assert [(r.val_auc, r.val_precision) for r in reports] == LDP_VAL_METRICS
    assert digest(server.params.tensors) == LDP_SERVER_DIGEST
    assert evaluate_global(server.params, clients, "test") == LDP_TEST_SUMMARY
    # no score passes the 0.5 threshold above; a lifted output bias puts
    # about half the clients' precision in range
    lifted = server.params.with_tensors({"mlp/1/b": server.params.tensors["mlp/1/b"] + 0.3})
    assert evaluate_global(lifted, clients, "train") == LDP_LIFTED_TRAIN_SUMMARY


PRETRAIN_LOSSES = [0.7058724290246511, 0.6832571777896967, 0.6692057217700406, 0.6567113062756279]
PRETRAIN_DIGEST = "0e6d9efb36d52f1486b2bfed7c2e59ded855486ad2a4662b3c089c7c5fd5fd6d"
DISTILL_LOSSES = [0.706158900452155, 0.6707082257580533, 0.6611393982414562]
DISTILL_DIGEST = "08085ceea5984530c593651b08dbec1d5525654c69c8221acf1cb2af10582ddc"
FEDPA_SERVER_DIGEST = "1a7d0b8d8f34858a7f6edeb3c7561e1392f716af3f5ae98f537c3e498990695f"
FEDPA_PRIVATE_DIGEST = "8a5c5710921dd6d348f75c19ad4cb8c569de900d828050d9a9cf8c38f03090b9"
LDP_VAL_METRICS = [(0.6495726495726496, None)] * 3
LDP_SERVER_DIGEST = "14f983d71f4c21598c2f31e6e04fad8131a98d6b33c3ff6667e9c7674508ade4"
LDP_TEST_SUMMARY = EvalSummary(mean_auc=0.5238095238095238, mean_precision=None, n_clients=15,
                               n_auc_valid=7, n_precision_valid=0)
LDP_LIFTED_TRAIN_SUMMARY = EvalSummary(mean_auc=0.4651917526917527, mean_precision=0.2738095238095238,
                                       n_clients=15, n_auc_valid=13, n_precision_valid=7)
