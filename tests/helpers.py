"""Shared test utilities: independent oracles and fixtures."""
from dataclasses import dataclass, replace
from typing import Dict

import numpy as np
from scipy.stats import rankdata

from fedrec.federation import (
    GROUP_PREFIX,
    OWN_GROUP,
    ClientArrays,
    FederationError,
    ServerState,
    UploadBatch,
    local_train,
)
from fedrec.metrics import auc, precision
from fedrec.model import FROZEN, SHARED, bce_loss, forward_batch, sgd_epoch
from fedrec.privacy import laplace_noise


def numeric_grad(ps, name, UA, VA, groups, y, step=1e-5):
    """Central finite-difference gradient of the batch BCE w.r.t. one tensor."""
    t = ps.tensors[name]
    num = np.zeros_like(t)
    it = np.nditer(t, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        tp = t.copy()
        tp[idx] += step
        tm = t.copy()
        tm[idx] -= step
        lp = bce_loss(forward_batch(ps.with_tensors({name: tp}), UA, VA, groups)[0], y)
        lm = bce_loss(forward_batch(ps.with_tensors({name: tm}), UA, VA, groups)[0], y)
        num[idx] = (lp - lm) / (2.0 * step)
    return num


def max_rel_error(analytic, numeric, floor=1e-6):
    """Elementwise relative error with a denominator floor so that truncation
    noise on near-zero entries does not register as disagreement."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def brute_force_auc(scores, labels):
    """O(P*N) pairwise AUC; ties count half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else 0.5 if p == q else 0.0
    return total / (len(pos) * len(neg))


def rankdata_auc(scores, labels):
    """Rank-sum AUC from scipy's average ranks, or None on a single-class batch."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        return None
    pos_rank_sum = float(rankdata(s)[y == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def masked_precision(scores, labels):
    """TP / (TP + FP) with predicted-positive = score > 0.5, or None when no
    score passes 0.5."""
    s = np.asarray(scores, dtype=float)
    predicted = s > 0.5
    if not predicted.any():
        return None
    return float(np.sum((np.asarray(labels) == 1) & predicted) / np.sum(predicted))


def score_rows_reference(scores, labels, counts):
    """Per-row oracle for metrics.score_rows: (AUC or None, precision or
    None) of each row's first counts[c] entries."""
    return [
        (rankdata_auc(s[:k], y[:k]), masked_precision(s[:k], y[:k]))
        for s, y, k in zip(scores, labels, counts)
    ]


def noise_upload(upload, config, rng):
    """Per-client oracle for privacy.noise_uploads: one laplace_noise draw
    per tensor of one client's upload, in upload order, from its own
    Generator."""
    if not config.enabled:
        return upload
    noised = {n: t + laplace_noise(config.intensity, t.shape, [rng])[0] for n, t in upload.tensors.items()}
    return replace(upload, tensors=noised)


def randomized_params(ps, seed, scale=0.05):
    """Perturb every tensor so adapters and gates are away from their zero init."""
    rng = np.random.default_rng(seed)
    return ps.with_tensors({n: t + rng.normal(0.0, scale, t.shape) for n, t in ps.tensors.items()})


def _slot_rows(ps, UA, VA):
    """(embedding table name, row index per example) for each d-wide slot
    of a layer-0 input row: user attributes, then item attributes."""
    return [(f"user_emb/{name}", UA[..., j]) for j, name in enumerate(ps.arch.user_schema.names)] + [
        (f"item_emb/{name}", VA[..., j]) for j, name in enumerate(ps.arch.item_schema.names)
    ]


def _flat_rows(table, rows):
    """(2-d table, row index) for a lookup. A cohort's stacked (C, p, d) table
    is read as one (C * p, d) table, where row r of client c is c * p + r."""
    if table.ndim == 2:
        return table, rows
    C, p, d = table.shape
    return table.reshape(C * p, d), rows + p * np.arange(C)[:, None]


def embed_reference(ps, UA, VA):
    """Per-table oracle for the model's fused gather: each slot's table
    indexed on its own, the slots concatenated."""
    cols = []
    for key, rows in _slot_rows(ps, UA, VA):
        table, flat = _flat_rows(ps.tensors[key], rows)
        cols.append(table[flat])
    return np.concatenate(cols, axis=-1)


def embed_grads_reference(ps, UA, VA, dX):
    """Per-table np.add.at oracle for the model's fused scatter: the gradient
    of each non-frozen embedding table from the layer-0 input gradient dX."""
    d = ps.arch.embed_dim
    grads = {}
    for j, (key, rows) in enumerate(_slot_rows(ps, UA, VA)):
        if ps.tags[key] != FROZEN:
            gtab = np.zeros_like(ps.tensors[key])
            table, flat = _flat_rows(gtab, rows)  # a view of gtab
            np.add.at(table, flat, dX[..., j * d : (j + 1) * d])
            grads[key] = gtab
    return grads


@dataclass
class Upload:
    """One client's upload: the per-client form of a row of an UploadBatch,
    with group adapters under their own group's names."""

    uid: int
    tensors: Dict[str, np.ndarray]
    n_examples: int
    groups: Dict[str, int]
    skipped: bool = False

    @property
    def n_scalars(self) -> int:
        return int(sum(t.size for t in self.tensors.values()))


def upload_names(ps, client):
    """Shared tensors this client trains: everything shared except group
    adapters of groups the client does not belong to."""
    names = []
    for n, tag in ps.tags.items():
        if tag != SHARED:
            continue
        if n.startswith(GROUP_PREFIX):
            _, _, attr, g, _rest = n.split("/", 4)
            if client.groups.get(attr) != int(g):
                continue
        names.append(n)
    return sorted(names)


def user_matrix(client, n):
    """The client's user attribute row repeated n times."""
    return np.tile(client.user_attrs, (n, 1))


def aggregate(uploads, server):
    """Per-client oracle for federation.aggregate_uploads: unweighted
    element-wise mean of each shared tensor over the uploads containing it;
    group adapters therefore average over group members only."""
    live = [u for u in uploads if not u.skipped]
    if not live:
        raise FederationError("no usable uploads this round")
    for u in live:
        bad = [n for n in u.tensors if server.params.tags.get(n) != SHARED]
        if bad:
            raise FederationError(f"upload from client {u.uid} contains non-shared tensors {bad}")
    updates = {}
    for name, tag in server.params.tags.items():
        if tag != SHARED:
            continue
        vals = [u.tensors[name] for u in live if name in u.tensors]
        if vals:
            updates[name] = np.mean(np.stack(vals), axis=0)
    return ServerState(server.params.with_tensors(updates), server.reports)


def real_name(name, groups, group_attrs):
    """A batch tensor's name in one client's upload: a group adapter's
    cohort name with OWN_GROUP replaced by the client's group; any other
    name unchanged."""
    parts = name.split("/", 4)
    if not name.startswith(GROUP_PREFIX) or parts[3] != OWN_GROUP:
        return name
    return f"{GROUP_PREFIX}{parts[2]}/{groups[group_attrs.index(parts[2])]}/{parts[4]}"


def uploads_of(batch, clients, arch):
    """The batch as per-client Uploads in `clients` order; a client without
    a row gets a skipped upload."""
    rows = {int(uid): c for c, uid in enumerate(batch.uids)}
    out = []
    for client in clients:
        c = rows.get(client.uid)
        if c is None:
            out.append(Upload(client.uid, {}, 0, dict(client.groups), skipped=True))
            continue
        tensors = {real_name(n, batch.groups[c], arch.group_attrs): t[c] for n, t in batch.tensors.items()}
        out.append(Upload(client.uid, dict(sorted(tensors.items())), int(batch.n_examples[c]),
                          dict(client.groups)))
    return out


def batch_of(uploads, arch):
    """The live uploads as one UploadBatch in upload order. Each must carry
    the same tensors, as a client's upload does: the adapters of its own
    group of an attribute go under their cohort name, any other tensor
    under its own. An upload without a group of an attribute sits in group
    0 of it."""
    live = [u for u in uploads if not u.skipped]
    groups = np.array([[u.groups.get(a, 0) for a in arch.group_attrs] for u in live], dtype=np.int64)
    tensors = {}
    for name in live[0].tensors if live else ():
        own = name
        parts = name.split("/", 4)
        if name.startswith(GROUP_PREFIX) and live[0].groups.get(parts[2]) == int(parts[3]):
            own = f"{GROUP_PREFIX}{parts[2]}/{OWN_GROUP}/{parts[4]}"
        tensors[own] = np.stack(
            [u.tensors[real_name(own, groups[c], arch.group_attrs)] for c, u in enumerate(live)]
        )
    return UploadBatch(
        uids=np.array([u.uid for u in live], dtype=np.int64),
        n_examples=np.array([u.n_examples for u in live], dtype=np.int64),
        groups=groups.reshape(len(live), len(arch.group_attrs)),
        tensors=dict(sorted(tensors.items())),
    )


def train_cohort(clients, global_ps, cfg, round_index, seed):
    """federation.local_train on all of `clients`, stacked as a run stacks
    them; writes their private tensors back and returns the UploadBatch."""
    arrays = ClientArrays.stack(clients, global_ps.arch, ("train",))
    batch = local_train(arrays, np.arange(len(clients)), global_ps, cfg, round_index, seed, [])
    arrays.write_back(clients)
    return batch


def embed_user(ps, attrs):
    """Concatenated user attribute embedding (one table lookup per attribute)."""
    ps.arch.user_schema.validate_values(attrs, "user")
    return np.concatenate(
        [ps.tensors[f"user_emb/{name}"][v] for name, v in zip(ps.arch.user_schema.names, attrs)]
    )


def embed_item(ps, attrs):
    ps.arch.item_schema.validate_values(attrs, "item")
    return np.concatenate(
        [ps.tensors[f"item_emb/{name}"][v] for name, v in zip(ps.arch.item_schema.names, attrs)]
    )


def compare_models(model_a, model_b, UA, VA, labels):
    """(AUC_A - AUC_B, Precision_A - Precision_B) on one evaluation batch."""
    pa, _ = forward_batch(model_a, UA, VA)
    pb, _ = forward_batch(model_b, UA, VA)
    return auc(pa, labels) - auc(pb, labels), precision(pa, labels) - precision(pb, labels)


def client_local_train(client, global_ps, cfg, round_index, seed):
    """Per-client oracle for federation.local_train: overlay the client's
    private tensors on the global ones, run E local epochs of SGD on its own
    train shard, persist the private tensors, return the upload."""
    shard = client.shards["train"]
    if len(shard) == 0:
        return Upload(client.uid, {}, 0, dict(client.groups), skipped=True)

    ps = global_ps.with_tensors({k: v.copy() for k, v in client.private.items()})
    n = len(shard)
    UA = user_matrix(client, n)
    rng = np.random.default_rng([seed, round_index, client.uid, 1])
    for _ in range(cfg.local_epochs):
        ps, _ = sgd_epoch(ps, UA, shard.items, shard.labels, client.groups, cfg.batch_size, cfg.lr, rng)

    client.private = {k: ps.tensors[k] for k in client.private}
    tensors = {n_: ps.tensors[n_] for n_ in upload_names(ps, client)}
    return Upload(client.uid, tensors, n, dict(client.groups))
