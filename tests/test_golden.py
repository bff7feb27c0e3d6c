"""Golden results: exact losses and tensor digests of small training runs.

The values were recorded before the SGD step kernel was rewritten (one
gather, one scatter, a layout plan per epoch) and pin that rewrite, and any
later one, to the same floating-point results bit for bit. They hold for
numpy 2.4 with OpenBLAS 0.3.31 on x86-64; another BLAS build may change the
last bits of a matrix product, and with them every digest.
"""
import hashlib

import numpy as np

from fedrec.data import SynthConfig, synth_generate
from fedrec.distill import DistillConfig, distill
from fedrec.federation import ServerState, aggregate, local_train, pretrain, pretrain_examples
from fedrec.model import Arch
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


PRETRAIN_LOSSES = [0.7058724290246511, 0.6832571777896967, 0.6692057217700406, 0.6567113062756279]
PRETRAIN_DIGEST = "0e6d9efb36d52f1486b2bfed7c2e59ded855486ad2a4662b3c089c7c5fd5fd6d"
DISTILL_LOSSES = [0.706158900452155, 0.6707082257580533, 0.6611393982414562]
DISTILL_DIGEST = "08085ceea5984530c593651b08dbec1d5525654c69c8221acf1cb2af10582ddc"
FEDPA_SERVER_DIGEST = "1a7d0b8d8f34858a7f6edeb3c7561e1392f716af3f5ae98f537c3e498990695f"
FEDPA_PRIVATE_DIGEST = "8a5c5710921dd6d348f75c19ad4cb8c569de900d828050d9a9cf8c38f03090b9"
