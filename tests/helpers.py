"""Shared test utilities: independent oracles and fixtures."""
from dataclasses import replace

import numpy as np
from scipy.stats import rankdata

from fedrec.federation import Upload, _upload_names
from fedrec.model import FROZEN, bce_loss, forward_batch, sgd_epoch
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


def noise_upload_per_tensor(upload, config, rng):
    """Per-tensor oracle for privacy.noise_upload: one laplace_noise draw
    per tensor, in upload order."""
    if not config.enabled:
        return upload
    noised = {n: t + laplace_noise(config.intensity, t.shape, rng) for n, t in upload.tensors.items()}
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


def client_local_train(client, global_ps, cfg, round_index, seed):
    """Per-client oracle for federation.local_train: overlay the client's
    private tensors on the global ones, run E local epochs of SGD on its own
    train shard, persist the private tensors, return the upload."""
    shard = client.shards["train"]
    if len(shard) == 0:
        return Upload(client.uid, {}, 0, dict(client.groups), skipped=True)

    ps = global_ps.with_tensors({k: v.copy() for k, v in client.private.items()})
    n = len(shard)
    UA = client.user_matrix(n)
    rng = np.random.default_rng([seed, round_index, client.uid, 1])
    for _ in range(cfg.local_epochs):
        ps, _ = sgd_epoch(ps, UA, shard.items, shard.labels, client.groups, cfg.batch_size, cfg.lr, rng)

    client.private = {k: ps.tensors[k] for k in client.private}
    tensors = {n_: ps.tensors[n_] for n_ in _upload_names(ps, client)}
    return Upload(client.uid, tensors, n, dict(client.groups))
