"""Shared test utilities: independent oracles and fixtures."""
import contextlib
import ctypes
import fnmatch
import glob
import math
import os
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np
from scipy.stats import rankdata

from fedrec.data import (
    FED_TEST,
    FED_TRAIN,
    FED_VAL,
    MIN_FED_INTERACTIONS,
    SPLITS,
    COLUMNS,
    INTERACTION_COLUMNS,
    AttributeSchema,
    DataError,
    Dataset,
    runs,
    sample_negatives,
    write_csv,
)
from fedrec.experiment import ARMS, FEDPA_RULES
from fedrec.federation import (
    ClientArrays,
    FederationError,
    StackedShards,
    UploadBatch,
    local_train,
)
from fedrec.metrics import auc, precision
from fedrec import model
from fedrec.model import (
    EPS_CLAMP,
    FROZEN,
    GATE_COMMON,
    GATE_LEARNED,
    GATE_UNIFORM,
    GROUP_PREFIX,
    PRIVATE,
    SHARED,
    ForwardCache,
    ParamSet,
    ShapeError,
    _draw,
    _check_rows,
    _EmbedPlan,
    _epoch_loss,
    _forward,
    _index,
    _LayerPlan,
    _pair,
    _plan,
    _Plan,
    cohort_of,
    forward_batch,
    user_adapter_specs,
)
from fedrec.privacy import laplace_noise


SPLIT_KEYS = ("train", "val", "test")
# partition rules under the names the tests use: the paper's method, and
# every tensor shared
RULES = {"fedpa": FEDPA_RULES, "full": ARMS["no_adapter"][1]}


@dataclass
class Shard:
    items: np.ndarray   # (n, |item attrs|) int attribute values
    labels: np.ndarray  # (n,) float {0,1}

    def __len__(self):
        return len(self.labels)


@dataclass
class ClientState:
    """One client as objects: the per-client view of a row of ClientArrays."""

    uid: int
    user_attrs: np.ndarray            # (|user attrs|,)
    groups: Dict[str, int]
    shards: Dict[str, Shard]          # keys: "train", "val", "test"
    private: Dict[str, np.ndarray]    # user-level adapter tensors


def stack(clients, arch, splits) -> ClientArrays:
    """The clients as one ClientArrays, row i holding clients[i], with the
    shards of `splits`."""
    n = len(clients)
    users = np.array([c.user_attrs for c in clients], dtype=np.int64).reshape(n, len(arch.user_schema))
    shards = {}
    for split in splits:
        counts = np.array([len(c.shards[split]) for c in clients], dtype=np.int64)
        width = int(counts.max(initial=0))
        VA = np.zeros((n, width, len(arch.item_schema)), dtype=np.int64)
        y = np.zeros((n, width))
        for i, c in enumerate(clients):
            shard = c.shards[split]
            VA[i, : len(shard)] = shard.items
            y[i, : len(shard)] = shard.labels
        UA = np.repeat(users[:, None, :], width, axis=1)
        shards[split] = StackedShards(UA, VA, y, counts)
    groups = [[c.groups[a] for a in arch.group_attrs] for c in clients]
    specs = user_adapter_specs(arch)
    private = np.zeros((n, sum(math.prod(shape) for shape, _ in specs.values())))
    for i, c in enumerate(clients):
        if specs:
            private[i] = np.concatenate([c.private[name].ravel() for name in specs])
    return ClientArrays(
        uids=np.array([c.uid for c in clients], dtype=np.int64),
        groups=np.array(groups, dtype=np.int64).reshape(n, len(arch.group_attrs)),
        private=private,
        shards=shards,
    )


def _private_tensors(row, arch):
    """A private row as its named user-adapter tensors, views of the row."""
    specs = user_adapter_specs(arch)
    cuts = np.cumsum([math.prod(shape) for shape, _ in specs.values()])[:-1]
    return {name: t.reshape(shape) for (name, (shape, _)), t in zip(specs.items(), np.split(row, cuts))}


def write_back(arrays, clients, arch):
    """Set each client's private tensors to views of its row."""
    for i, c in enumerate(clients):
        c.private = _private_tensors(arrays.private[i], arch)


def client_objects(arrays, arch, ds) -> List[ClientState]:
    """The rows of `arrays` as ClientStates, shards cut to their counts."""
    user_attrs = ds.user_attrs(arrays.uids)
    return [
        ClientState(
            uid=uid,
            user_attrs=user_attrs[i],
            groups=dict(zip(arch.group_attrs, arrays.groups[i].tolist())),
            shards={k: Shard(s.VA[i, : s.counts[i]], s.y[i, : s.counts[i]]) for k, s in arrays.shards.items()},
            private=_private_tensors(arrays.private[i], arch),
        )
        for i, uid in enumerate(arrays.uids.tolist())
    ]


def build_clients_reference(dataset, arch, seed, neg_ratio=4) -> List[ClientState]:
    """Per-user oracle for federation.build_clients: one ClientState per
    federated user in uid order, each split's shard built on its own."""
    codes = [SPLITS.index(tag) for tag in (FED_TRAIN, FED_VAL, FED_TEST)]
    fed = dataset.rows(dataset.split >= codes[0])
    native_negs = not fed.label.all()
    universe = np.array(sorted(dataset.items), dtype=np.int64)
    clients = []
    for uid in runs(np.sort(fed.user))[0].tolist():
        rng = np.random.default_rng([seed, uid, 1])
        mine = fed.user == uid
        untouched = universe[~np.isin(universe, fed.item[mine])]
        shards = {}
        for key, code in zip(SPLIT_KEYS, codes):
            rows = np.flatnonzero(mine & (fed.split == code))
            item, label = fed.item[rows], fed.label[rows]
            if not native_negs:
                item, label = sample_negatives([item], untouched, neg_ratio, rng)[0]
            shards[key] = Shard(dataset.item_attrs(item), label.astype(float))
        values = dataset.users[uid]
        clients.append(ClientState(
            uid=uid,
            user_attrs=np.array(values, dtype=np.int64),
            groups={a: values[dataset.user_schema.index(a)] for a in arch.group_attrs},
            shards=shards,
            private=_draw(user_adapter_specs(arch), np.random.default_rng([seed, uid, 2])),
        ))
    return clients


def bce_loss(predictions, labels) -> float:
    """Mean binary cross-entropy with probability clamp at EPS_CLAMP: the
    per-batch loss sgd_epochs' epoch loss is the row-weighted mean of."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.size == 0:
        raise ShapeError("empty batch")
    if p.shape != y.shape:
        raise ShapeError("predictions/labels length mismatch")
    p = np.minimum(np.maximum(p, EPS_CLAMP), 1.0 - EPS_CLAMP)
    return float(-(np.add.reduce(y * np.log(p) + (1.0 - y) * np.log(1.0 - p), axis=None) / p.size))


def softmax_reference(a):
    """Softmax over the last axis with numpy's row reductions: the oracle of
    model._softmax, which takes the max and the sum as column operations."""
    z = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def numeric_grad(ps, name, UA, VA, groups, y, step=1e-5):
    """Central finite-difference gradient of the batch BCE w.r.t. one tensor
    of plain model `ps`, each element moved in place in a copy of `ps`."""
    work = ParamSet.from_vectors(ps.arch, ps.layout, ps.frozen.copy(), ps.trained.copy())
    _check_rows(ps.arch, UA, VA)
    plan = single_plan(work, groups, grads=False)
    rows = np.concatenate((UA, VA), axis=-1) + plan.embed.base
    t = work.tensors[name]
    num = np.zeros_like(t)
    for idx in np.ndindex(t.shape):
        value = t[idx]
        t[idx] = value + step
        plan.embed.restack()
        lp = bce_loss(_forward(plan, rows, False)[0], y)
        t[idx] = value - step
        plan.embed.restack()
        lm = bce_loss(_forward(plan, rows, False)[0], y)
        t[idx] = value
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


def noise_upload(upload, scale, rng):
    """Per-client oracle for privacy.noise_uploads: one laplace_noise draw
    per tensor of one client's upload, in upload order, from its own
    Generator."""
    noised = {n: t + laplace_noise(scale, t.shape, [rng])[0] for n, t in upload.tensors.items()}
    return replace(upload, tensors=noised)


def tensor_names(ps, pattern="*"):
    """The sorted names of the tensors of `ps` that match `pattern`."""
    return sorted(n for n in ps.tensors if fnmatch.fnmatchcase(n, pattern))


def count_matching(ps, pattern):
    """Scalars in the tensors of `ps` whose names match `pattern`."""
    return sum(ps.tensors[n].size for n in tensor_names(ps, pattern))


def prediction_mse(a, b, UA, VA):
    """Mean squared difference of two models' predicted probabilities."""
    pa, _ = forward_batch(a, UA, VA)
    pb, _ = forward_batch(b, UA, VA)
    return float(np.mean((pa - pb) ** 2))


def gradient(ps, tensors):
    """A gradient buffer for `ps` holding `tensors` (name -> array) and zero
    everywhere else of its trained buffer."""
    g = np.zeros(ps.trained.shape)
    for name, t in tensors.items():
        tag, a, b, _ = ps.layout.entries[name]
        start = ps.layout.start(tag)
        g[..., start + a : start + b] = np.reshape(t, ps.trained.shape[:-1] + (-1,))
    return g


def own_group_name(name, groups):
    """A cohort tensor's name as one client's: group 0's adapters renamed to
    those of the client's group of that attribute, groups[attr]."""
    if not name.startswith(GROUP_PREFIX):
        return name
    attr, _, rest = name[len(GROUP_PREFIX):].split("/", 2)
    return f"{GROUP_PREFIX}{attr}/{groups[attr]}/{rest}"


def trained_by_name(ps, buf, groups=None):
    """The trained tensors of `ps` in `buf` (its trained buffer, or a
    gradient laid out as it), by tensor name as views. With `groups`
    (attribute -> group, a cohort of one) group 0's adapters go under the
    names of those groups."""
    _, views = model._views(ps.layout, buf)
    return {own_group_name(n, groups) if groups else n: t for n, t in views.items()}


def lift(ps, groups=None):
    """Plain model `ps` as a cohort of one client of the groups in `groups`
    (attribute -> group)."""
    return cohort_of(ps, [[groups[a] for a in ps.arch.group_attrs] if groups else []])


def forward_one_shot(ps, UA, VA, groups=None):
    """forward_batch's probabilities from one forward pass over every row at
    once: the oracle that blocked inference matches bit for bit. A plain
    model's rows (n, attrs) run through single_plan."""
    plan = _plan(ps, grads=False) if ps.trained.ndim > 1 else single_plan(ps, groups, grads=False)
    rows = np.concatenate((UA, VA), axis=-1) + plan.embed.base
    return _forward(plan, rows, False)[0]


def forward_cached(ps, UA, VA):
    """The training forward pass of cohort `ps` over UA (C, n, a) and VA
    (C, n, a'), as model.sgd_epochs runs a step: (probs, ForwardCache)
    through a plan that holds a gradient buffer, for backward_batch."""
    _check_rows(ps.arch, UA, VA)
    plan = _plan(ps)
    rows = np.concatenate((UA, VA), axis=-1) + plan.embed.base
    probs, layers = _forward(plan, rows, True)
    return probs, ForwardCache(plan.embed.scatter_rows(rows), layers, probs, plan)


def draw_order_reference(lay, arch):
    """Oracle for federation._draw_order(lay.cohort), as it was written over
    a cohort's unnamed own-group segments: the model's common shared tensors
    keep their columns, and each grouping attribute whose adapters are shared
    holds one segment after them, in attribute order, its tensors in
    model._pair order under group 0's names. The draws run through the
    tensors in sorted name order."""
    segment, width = [], 0
    for shape, _ in _pair(arch, "").values():
        segment.append((width, width + math.prod(shape)))
        width += math.prod(shape)
    grouped = {n for segments in lay.groups.values() for names in segments for n in names}
    spans = [(n, a, b) for n, (tag, a, b, _) in lay.entries.items() if tag == SHARED and n not in grouped]
    at = lay.common[SHARED]
    for segments in lay.groups.values():
        if lay.entries[segments[0][0]][0] == SHARED:
            spans += [(n, at + a, at + b) for n, (a, b) in zip(segments[0], segment)]
            at += width
    order, drawn = np.empty(at, dtype=np.intp), 0
    for _, a, b in sorted(spans):
        order[a:b] = np.arange(drawn, drawn + b - a)
        drawn += b - a
    return order


def single_plan(ps, groups, grads=True):
    """The layout plan of plain model `ps` (trained buffer (P,)) with the
    group adapters of `groups` (attribute -> group) looked up by name: the
    single-model plan that model._plan's cohort plan replaced, kept as an
    oracle. Without `grads`, an inference plan that holds no gradient."""
    arch, lay = ps.arch, ps.layout
    grad = np.zeros(ps.trained.shape if grads else 0)

    def named(name):
        tag, a, b, shape = lay.entries[name]
        if tag == FROZEN or not grads:
            return ps.tensors[name], None
        return ps.tensors[name], grad[lay.start(tag) + a : lay.start(tag) + b].reshape(shape)

    d = arch.embed_dim
    names = tuple(f"user_emb/{a}" for a in arch.user_schema.names) + tuple(
        f"item_emb/{a}" for a in arch.item_schema.names
    )
    slots = [lay.entries[n] for n in names]
    pieces, row, first, trained = [], 0, {}, []
    for tag in (PRIVATE, SHARED, FROZEN):
        width = max((b for t, _, b, _ in slots if t == tag), default=0)  # tables lead the vector
        if not width:
            continue
        first[tag] = row
        if tag != FROZEN:
            s = lay.start(tag)
            trained.append((ps.flat[tag][:width], row * d, row * d + width, grad[s : s + width] if grads else None))
        pieces.append(ps.flat[tag][:width])
        row += width // d
    on = [s for s, (t, _, _, _) in enumerate(slots) if t != FROZEN]
    cols = [s * d + j for s in on for j in range(d)]
    lo, hi = (cols[0] // 8 * 8, min(arch.input_dim, -(-(cols[-1] + 1) // 8) * 8)) if cols else (0, 0)
    if hi - lo == 1:
        lo, hi = 0, arch.input_dim
    embed = _EmbedPlan(
        source=pieces[0].reshape(-1, d) if len(pieces) == 1 else np.concatenate([p.reshape(-1, d) for p in pieces]),
        base=np.array([first[t] + a // d for t, a, _, _ in slots]),
        cols=np.arange(d),
        live=_index(on),
        span=slice(lo, hi),
        span_live=_index([c - lo for c in cols]),
        trained=tuple(trained),
    )
    layers = []
    for l in range(arch.n_layers):
        adapters = []
        if l in arch.adapter_layer_ids:
            if arch.use_user_adapter:
                adapters.append((named(f"adapter/user/{l}/A"), named(f"adapter/user/{l}/B")))
            for attr in arch.group_attrs:
                if groups is None or attr not in groups:
                    raise ShapeError(f"group index for attribute {attr!r} required")
                prefix = f"{GROUP_PREFIX}{attr}/{groups[attr]}/{l}"
                adapters.append((named(prefix + "/A"), named(prefix + "/B")))
        gate = weights = None
        if adapters and arch.gate_mode == GATE_LEARNED:
            gate = (named(f"gate/{l}/W1"), named(f"gate/{l}/W2"))
        elif adapters:  # a fixed gate: 1/B on each branch, or all on the common one
            branches = len(adapters) + 1
            weights = np.full(branches, 1.0 / branches) if arch.gate_mode == GATE_UNIFORM else np.zeros(branches)
            if arch.gate_mode == GATE_COMMON:
                weights[0] = 1.0
        layers.append(_LayerPlan(named(f"mlp/{l}/W"), named(f"mlp/{l}/b"), tuple(adapters), gate, weights))
    return _Plan(embed, tuple(layers), grad)


def sgd_epochs_single(ps, UA, VA, y, groups, batch_size, lr, rng, epochs, want_loss=False):
    """Oracle for a cohort of one in model.sgd_epochs: the single-model loop
    it replaced. Plain model `ps` trains on rows UA (n, a), VA (n, a') and
    y (n,) through single_plan, each epoch in one `rng.permutation(n)`
    order, each batch's mean BCE gradient over its own rows
    (model.backward_batch without a mask divides by the batch's rows).
    Returns (trained model, each epoch's loss, or None without
    `want_loss`)."""
    _check_rows(ps.arch, UA, VA)
    ps = ps.copy()
    ps.plan = plan = single_plan(ps, groups)
    rows = np.concatenate((UA, VA), axis=-1) + plan.embed.base
    losses = [] if want_loss else None
    for _ in range(epochs):
        order = rng.permutation(len(y))
        epoch_rows, epoch_y = rows[order], y[order]
        epoch_index = plan.embed.scatter_rows(epoch_rows)
        probs = np.empty(len(y))
        for start in range(0, len(y), batch_size):
            batch = slice(start, start + batch_size)
            plan.embed.restack()
            p, layers = _forward(plan, epoch_rows[batch], True)
            probs[batch] = p
            cache = ForwardCache(epoch_index[batch], layers, p, plan)
            ps = model.sgd_step(ps, model.backward_batch(cache, epoch_y[batch]), lr)
        if want_loss:
            losses.append(_epoch_loss(probs, epoch_y, batch_size))
    ps.plan = None
    return ps, losses


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


def backward_full_width(cache, labels, valid=None):
    """Oracle for model.backward_batch: the same analytic gradients with the
    layer-0 input gradient taken over every input column, then cut to the
    trained tables' slots for the scatter. Returns a copy of the gradient
    buffer; it writes the plan's gradient views as backward_batch does."""
    y = np.asarray(labels, dtype=float)
    if valid is None:
        dZ = ((cache.probs - y) / y.shape[-1])[..., None]
    else:
        n = np.maximum(valid @ np.ones(valid.shape[-1]), 1.0)[..., None]
        dZ = np.where(valid, (cache.probs - y) / n, 0.0)[..., None]
    for l in range(len(cache.layers) - 1, -1, -1):
        lp, c = cache.plan.layers[l], cache.layers[l]
        X = c.X
        (W, gW), (_, gb) = lp.W, lp.b
        if not c.gated:
            dC = dZ
            dX = dC @ W
        else:
            G = c.G
            dX = np.zeros_like(X)
            if lp.gate is not None:
                (W1, gW1), (W2, gW2) = lp.gate
                dG = np.empty(G.shape)
                for j, v in enumerate(c.V):
                    dG[..., j] = np.add.reduce(v * dZ, axis=-1)
                dA = G * (dG - np.add.reduce(G * dG, axis=-1)[..., None])
                if gW2 is not None:
                    np.matmul(dA.mT, c.S, out=gW2)
                dZ1 = (dA @ W2) * (c.S > 0)
                if gW1 is not None:
                    np.matmul(dZ1.mT, X, out=gW1)
                dX += dZ1 @ W1
            dC = G[..., :1] * dZ
            for j, (T, ((A, gA), (B, gB))) in enumerate(zip(c.T, lp.adapters), start=1):
                dV = G[..., j : j + 1] * dZ
                if gA is not None:
                    np.matmul(dV.mT, T, out=gA)
                dT = dV @ A
                if gB is not None:
                    np.matmul(dT.mT, X, out=gB)
                dX += dT @ B
            dX += dC @ W
        if gW is not None:
            np.matmul(dC.mT, X, out=gW)
        if gb is not None:
            np.add.reduce(dC, axis=-2, out=gb)
        if l > 0:
            dZ = dX * (X > 0)
    emb = cache.plan.embed
    if emb.trained:
        d = len(emb.cols)
        flat = np.bincount(
            (cache.index[..., None] + emb.cols).ravel(),
            weights=dX.reshape(cache.index.shape[:-1] + (-1, d))[..., emb.live, :].ravel(),
            minlength=emb.trained[-1][2],
        )
        for _, start, stop, grad in emb.trained:
            grad[...] = flat[start:stop].reshape(grad.shape)
    return cache.plan.grad.copy()


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
    """Per-client oracle for federation.aggregate_uploads: the server's
    ParamSet with the unweighted element-wise mean of each shared tensor
    over the uploads containing it; group adapters therefore average over
    group members only."""
    live = [u for u in uploads if not u.skipped]
    if not live:
        raise FederationError("no usable uploads this round")
    for u in live:
        bad = [n for n in u.tensors if server.tags.get(n) != SHARED]
        if bad:
            raise FederationError(f"upload from client {u.uid} contains non-shared tensors {bad}")
    updates = {}
    for name, tag in server.tags.items():
        if tag != SHARED:
            continue
        vals = [u.tensors[name] for u in live if name in u.tensors]
        if vals:
            updates[name] = np.mean(np.stack(vals), axis=0)
    return server.with_tensors(updates)


def upload_tensors(batch, c, server):
    """Row c of the batch, laid out as the shared vector of the server's
    cohort, as one client's upload, name -> tensor, in name order: group 0's
    adapters under the names of the client's group."""
    arch = server.arch
    groups = dict(zip(arch.group_attrs, batch.groups[c].tolist()))
    return dict(sorted(
        (own_group_name(n, groups), batch.shared[c, a:b].reshape(shape))
        for n, (tag, a, b, shape) in server.layout.cohort.entries.items()
        if tag == SHARED
    ))


def uploads_of(batch, clients, server):
    """The batch as per-client Uploads in `clients` order; a client without
    a row gets a skipped upload."""
    rows = {int(uid): c for c, uid in enumerate(batch.uids)}
    out = []
    for client in clients:
        c = rows.get(client.uid)
        if c is None:
            out.append(Upload(client.uid, {}, 0, dict(client.groups), skipped=True))
            continue
        out.append(Upload(client.uid, upload_tensors(batch, c, server), len(client.shards["train"]),
                          dict(client.groups)))
    return out


def batch_of(uploads, server):
    """The live uploads as one UploadBatch in upload order, each a row laid
    out as the shared vector of the server's cohort (`model.cohort_of`): an
    attribute's group 0 adapters hold those of the upload's group of it
    (group 0 when the upload names none), and a tensor the upload leaves out
    holds the server's value. Adapters of groups other than the upload's
    own have no place in its row and are left out; an upload of a tensor
    the server does not share raises ValueError."""
    arch = server.arch
    live = [u for u in uploads if not u.skipped]
    groups = np.array([[u.groups.get(a, 0) for a in arch.group_attrs] for u in live], dtype=np.int64)
    groups = groups.reshape(len(live), len(arch.group_attrs))
    cohort = cohort_of(server, groups)
    shared = cohort.flat[SHARED].copy()
    for c, u in enumerate(live):
        own = dict(zip(arch.group_attrs, groups[c].tolist()))
        if any(server.tags[n] != SHARED for n in u.tensors):
            raise ValueError(f"upload from client {u.uid} holds a tensor the server does not share")
        for name, (tag, a, b, _) in cohort.layout.entries.items():
            if tag == SHARED and own_group_name(name, own) in u.tensors:
                shared[c, a:b] = u.tensors[own_group_name(name, own)].ravel()
    return UploadBatch(uids=np.array([u.uid for u in live], dtype=np.int64), groups=groups, shared=shared)


def train_cohort(clients, global_ps, cfg, round_index):
    """federation.local_train on all of `clients`, stacked as a run holds
    them; writes their private tensors back and returns the UploadBatch."""
    arrays = stack(clients, global_ps.arch, ("train",))
    batch = local_train(arrays, np.arange(len(clients)), global_ps, cfg, round_index, [])
    write_back(arrays, clients, global_ps.arch)
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


def client_local_train(client, global_ps, cfg, round_index):
    """Per-client oracle for federation.local_train: overlay the client's
    private tensors on the global ones, run E local epochs of SGD on its own
    train shard, persist the private tensors, return the upload."""
    shard = client.shards["train"]
    if len(shard) == 0:
        return Upload(client.uid, {}, 0, dict(client.groups), skipped=True)

    ps = global_ps.with_tensors({k: v.copy() for k, v in client.private.items()})
    n = len(shard)
    UA = user_matrix(client, n)
    rng = np.random.default_rng([cfg.seed, round_index, client.uid, 1])
    for _ in range(cfg.local_epochs):
        ps, _ = sgd_epochs_single(ps, UA, shard.items, shard.labels, client.groups, cfg.fed_batch, cfg.fed_lr, rng, 1)

    client.private = {k: ps.tensors[k] for k in client.private}
    tensors = {n_: ps.tensors[n_] for n_ in upload_names(ps, client)}
    return Upload(client.uid, tensors, n, dict(client.groups))


def dataset_of(user_schema, item_schema, users, items, rows):
    """A Dataset whose columns hold the Interaction `rows`, splits included."""
    cols = [[getattr(r, f) for r in rows] for f in ("user", "item", "ts", "label")]
    split = np.array([SPLITS.index(r.split) for r in rows], dtype=np.int8)
    return Dataset(user_schema, item_schema, users, items, *cols, split=split)


def with_split(ds, tag):
    """`ds` with every row in split `tag`."""
    return replace(ds, split=np.full(len(ds), SPLITS.index(tag), dtype=np.int8))


def attribute_rows_reference(records, width, ids):
    """Per-call oracle for Dataset.user_attrs / item_attrs: the sorted ids
    and the whole attribute table rebuilt, then one lookup in the ids."""
    keys = np.array(sorted(records), dtype=np.int64)
    table = np.array([records[k] for k in keys.tolist()], dtype=np.int64).reshape(len(keys), width)
    return table[np.searchsorted(keys, ids)]


def attribute_draws_reference(rng, cards, n):
    """Scalar-draw oracle for synth_generate's attribute draw of one side:
    one `rng.integers(0, card)` per attribute, record after record."""
    return [tuple(int(rng.integers(0, p)) for p in cards) for _ in range(n)]


def synth_generate_reference(config, seed):
    """Scalar-draw oracle for data.synth_generate: each side's attributes
    drawn one value at a time into the records, and each user's items drawn
    from the array of item ids."""
    rng = np.random.default_rng(seed)
    user_schema = AttributeSchema(tuple(f"ua{j}" for j in range(len(config.user_attrs))), config.user_attrs)
    item_schema = AttributeSchema(tuple(f"ia{j}" for j in range(len(config.item_attrs))), config.item_attrs)
    users = dict(enumerate(attribute_draws_reference(rng, user_schema.cards, config.n_users)))
    items = dict(enumerate(attribute_draws_reference(rng, item_schema.cards, config.n_items)))
    affinity = rng.normal(0.0, 1.2, size=(user_schema.cards[0], item_schema.cards[0]))
    rho = rng.normal(0.0, config.pref_spread, size=config.n_users)
    tau = rng.normal(0.0, 0.2, size=config.n_users)
    k = min(config.interactions_per_user, config.n_items)
    item_ids = np.arange(config.n_items)
    draws = [
        (rng.choice(item_ids, size=k, replace=config.interactions_per_user > config.n_items), rng.random(k))
        for _ in range(config.n_users)
    ]
    chosen, uniform = np.array([d[0] for d in draws]), np.array([d[1] for d in draws])
    g = np.array([users[uid][0] for uid in range(config.n_users)])[:, None]
    c = np.array([items[iid][0] for iid in range(config.n_items)])[chosen]
    logit = config.base + config.beta * ((1.0 + rho[:, None]) * affinity[g, c] + tau[:, None])
    label = uniform < 1.0 / (1.0 + np.exp(-logit))
    user, ts = np.repeat(np.arange(config.n_users), k), np.tile(np.arange(k), config.n_users)
    return Dataset(user_schema, item_schema, users, items, user, chosen.ravel(), ts, label.ravel())


def validate_records_reference(ds):
    """Per-record oracle for Dataset.validate's attribute checks: each
    user's values, then each item's, in dict order; the first bad record
    raises its schema's `validate_values` error."""
    for uid, vals in ds.users.items():
        ds.user_schema.validate_values(vals, f"user {uid}")
    for iid, vals in ds.items.items():
        ds.item_schema.validate_values(vals, f"item {iid}")


def split_per_user_chronological_rows(rows):
    """Row-object oracle for data.split_per_user_chronological: the split
    Interaction rows (assigned rows as they were, dropped users' rows gone)
    and the dropped users' ids in ascending order."""
    by_user = {}
    for r in rows:
        if r.split is None:
            by_user.setdefault(r.user, []).append(r)

    tagged = {}  # id(interaction) -> tag
    dropped = set()
    for uid, user_rows in by_user.items():
        if len(user_rows) < MIN_FED_INTERACTIONS:
            dropped.add(uid)
            continue
        user_rows = sorted(user_rows, key=lambda r: (r.ts, r.item))
        n = len(user_rows)
        n_train = math.ceil(0.6 * n)
        n_val = max(1, min(math.ceil(0.2 * n), n - n_train - 1))
        for i, r in enumerate(user_rows):
            tagged[id(r)] = FED_TRAIN if i < n_train else FED_VAL if i < n_train + n_val else FED_TEST

    out = []
    for r in rows:
        if r.split is not None:
            out.append(r)
        elif r.user not in dropped:
            out.append(replace(r, split=tagged[id(r)]))
    return out, sorted(dropped)


def sample_negatives_rows(splits, item_universe, ratio, rng):
    """Row-object oracle for data.sample_negatives: for each split's
    positive rows, in order, its (user, item, label) samples, each positive
    followed by its negatives, drawn from the items of no split."""
    if ratio < 0:
        raise DataError(f"negative ratio {ratio} < 0")
    interacted = {r.item for rows in splits for r in rows}
    pool = np.array(sorted(set(item_universe) - interacted), dtype=np.int64)

    out = []
    for rows in splits:
        samples = []
        for r in rows:
            samples.append((r.user, r.item, 1))
            if ratio == 0 or len(pool) == 0:
                continue
            negs = rng.choice(pool, size=ratio, replace=len(pool) < ratio)
            for iid in negs:
                samples.append((r.user, int(iid), 0))
        out.append(samples)
    return out


def sample_negatives_of(splits, item_universe, ratio, rng):
    """data.sample_negatives on each split's positive Interaction rows, as
    lists of (user, item, label) triples."""
    universe = np.array(sorted(item_universe), dtype=np.int64)
    items = [np.array([r.item for r in rows], dtype=np.int64) for rows in splits]
    return [
        [(rows[0].user if rows else 0, i, l) for i, l in zip(item.tolist(), label.tolist())]
        for rows, (item, label) in zip(splits, sample_negatives(items, universe, ratio, rng))
    ]


def write_dataset_csvs_one_shot(dataset, users_path, items_path, interactions_path):
    """Oracle for data.write_dataset_csvs: the interactions' four columns
    turned into Python lists whole, then written."""
    write_csv(users_path, ["user_id", *dataset.user_schema.names],
              ([u, *dataset.users[u]] for u in sorted(dataset.users)))
    write_csv(items_path, ["item_id", *dataset.item_schema.names],
              ([i, *dataset.items[i]] for i in sorted(dataset.items)))
    write_csv(interactions_path, INTERACTION_COLUMNS, zip(*(getattr(dataset, name).tolist() for name in COLUMNS[:4])))


def openblas():
    """numpy's bundled OpenBLAS library, loaded through ctypes (the library
    numpy itself calls), or None when it is absent."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def kernel_core():
    """The kernel core of numpy's bundled OpenBLAS, e.g. "SkylakeX", or
    "unknown" when the library or its symbol is absent."""
    corename = getattr(openblas(), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


@contextlib.contextmanager
def one_blas_thread_off_skylakex():
    """Run the body with one OpenBLAS thread on any kernel core but
    SkylakeX, and restore the thread count after. On the Haswell kernels
    with two threads, the rows of a product depend on where each thread's
    share begins: an 8,193-row `X @ W.T` differs in the last bit at rows
    2,048 and 5,120 from its 4,096 + 4,097-row blocks. With one thread, and
    on SkylakeX either way, no row differs."""
    lib = openblas()
    if lib is None or kernel_core() == "SkylakeX":
        yield
        return
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)
