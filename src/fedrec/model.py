"""Model core: embedding lookup, gated low-rank-adapter MLP, BCE loss and
exact analytic gradients.

Parameters live in a flat name -> float64 array map (ParamSet). Names:

    user_emb/<attr>                  (p, d) table
    item_emb/<attr>                  (p, d) table
    mlp/<l>/W  mlp/<l>/b             layer weight (k, d) and bias (k,)
    adapter/user/<l>/A|B             user-level low-rank pair (k, r) / (r, d)
    adapter/group/<attr>/<g>/<l>/A|B group-level pair for group g of <attr>
    gate/<l>/W1|W2                   gate mapping (h, d) / (n_branches, h)

Every tensor carries a partition tag (frozen / private / shared).

A ParamSet may also hold a cohort of clients: a tensor then either carries a
leading client axis (C, ...) or, when every client uses the same value, stays
as is and broadcasts. Forward, backward and SGD are written once over leading
axes, so a single model runs them without a client axis. A step reads every
tensor name, embedding offset and trainable flag it needs from a layout plan
(`_plan`) that `sgd_epoch` builds once per epoch.
"""
from __future__ import annotations

import fnmatch
import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import AttributeSchema

FROZEN, PRIVATE, SHARED = "frozen", "private", "shared"
TAGS = (FROZEN, PRIVATE, SHARED)

GATE_LEARNED, GATE_UNIFORM, GATE_COMMON, GATE_NONE = "learned", "uniform", "common", "none"

EPS_CLAMP = 1e-12  # BCE probability clamp


class ShapeError(ValueError):
    """Inconsistent tensor shapes or architecture description."""


@dataclass(frozen=True)
class Arch:
    """Architecture description of one model instance.

    gate_mode: "learned" (trainable softmax gate), "uniform" (fixed 1/B
    weights, no gate tensors), "common" (one-hot on the common branch, test
    fixture), "none" (plain base model, no branches at all).
    """

    user_schema: AttributeSchema
    item_schema: AttributeSchema
    embed_dim: int = 8
    mlp_hidden: Tuple[int, ...] = (32, 8)
    adapter_rank: int = 2
    gate_hidden: int = 8
    adapter_layers: str = "all"  # "all" | "hidden"
    use_user_adapter: bool = True
    group_attrs: Tuple[str, ...] = ()
    gate_mode: str = GATE_LEARNED

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ShapeError("embed_dim must be >= 1")
        if self.adapter_layers not in ("all", "hidden"):
            raise ShapeError(f"bad adapter_layers {self.adapter_layers!r}")
        if self.gate_mode not in (GATE_LEARNED, GATE_UNIFORM, GATE_COMMON, GATE_NONE):
            raise ShapeError(f"bad gate_mode {self.gate_mode!r}")
        for a in self.group_attrs:
            self.user_schema.index(a)
        if self.n_branches > 1 and self.adapter_rank < 1:
            raise ShapeError("adapter_rank must be >= 1")

    @property
    def input_dim(self) -> int:
        return (len(self.user_schema) + len(self.item_schema)) * self.embed_dim

    @property
    def layer_dims(self) -> Tuple[int, ...]:
        return (self.input_dim, *self.mlp_hidden, 1)

    @property
    def n_layers(self) -> int:
        return len(self.mlp_hidden) + 1

    @property
    def adapter_layer_ids(self) -> Tuple[int, ...]:
        if self.n_branches <= 1:
            return ()
        top = self.n_layers if self.adapter_layers == "all" else self.n_layers - 1
        return tuple(range(top))

    @property
    def n_branches(self) -> int:
        if self.gate_mode == GATE_NONE:
            return 1
        return 1 + (1 if self.use_user_adapter else 0) + len(self.group_attrs)

    def layer_rank(self, l: int) -> int:
        """Adapter rank at layer l, capped so the factor pair stays low-rank
        even on the width-1 output layer."""
        k, d = self.layer_dims[l + 1], self.layer_dims[l]
        return min(self.adapter_rank, min(d, k))

    def base(self) -> "Arch":
        """The plain two-tower model: no adapters, no gate."""
        return replace(self, use_user_adapter=False, group_attrs=(), gate_mode=GATE_NONE)

    def group_cards(self) -> Dict[str, int]:
        return {a: self.user_schema.cards[self.user_schema.index(a)] for a in self.group_attrs}


class ParamSet:
    """Named float64 tensors with partition tags; treated as an immutable value."""

    __slots__ = ("arch", "tensors", "tags")

    def __init__(self, arch: Arch, tensors: Dict[str, np.ndarray], tags: Optional[Dict[str, str]] = None):
        self.arch = arch
        self.tensors = tensors
        self.tags = tags if tags is not None else {n: SHARED for n in tensors}
        if set(self.tags) != set(self.tensors):
            raise ShapeError("tags must cover exactly the tensor names")

    def with_tensors(self, updates: Dict[str, np.ndarray]) -> "ParamSet":
        unknown = set(updates) - set(self.tensors)
        if unknown:
            raise ShapeError(f"unknown tensor names {sorted(unknown)}")
        merged = dict(self.tensors)
        merged.update(updates)
        return self._replaced(merged)

    def _replaced(self, tensors: Dict[str, np.ndarray]) -> "ParamSet":
        """This ParamSet's arch and tags over `tensors`, which the caller
        guarantees carries exactly this ParamSet's names."""
        out = ParamSet.__new__(ParamSet)
        out.arch, out.tensors, out.tags = self.arch, tensors, self.tags
        return out

    def names(self, pattern: str = "*") -> List[str]:
        return sorted(n for n in self.tensors if fnmatch.fnmatchcase(n, pattern))

    def check_finite(self):
        for n, t in self.tensors.items():
            if not np.all(np.isfinite(t)):
                raise ShapeError(f"tensor {n} contains non-finite values")


def _glorot(rng: np.random.Generator, shape: Tuple[int, int]) -> np.ndarray:
    a = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-a, a, size=shape)


def init_params(arch: Arch, seed) -> ParamSet:
    """Seeded initialization.

    Embeddings and MLP weights are Glorot-uniform, biases zero. Adapter W_a is
    N(0, 0.02) with W_b zero so every adapter branch starts as the zero map;
    gate W_2 is zero so the gate starts uniform over branches.
    """
    rng = np.random.default_rng(seed)
    t: Dict[str, np.ndarray] = {}
    for name, p in zip(arch.user_schema.names, arch.user_schema.cards):
        t[f"user_emb/{name}"] = _glorot(rng, (p, arch.embed_dim))
    for name, p in zip(arch.item_schema.names, arch.item_schema.cards):
        t[f"item_emb/{name}"] = _glorot(rng, (p, arch.embed_dim))
    dims = arch.layer_dims
    for l in range(arch.n_layers):
        k, d = dims[l + 1], dims[l]
        t[f"mlp/{l}/W"] = _glorot(rng, (k, d))
        t[f"mlp/{l}/b"] = np.zeros(k)
    t.update(init_user_adapter(arch, rng))
    for attr, card in arch.group_cards().items():
        for g in range(card):
            t.update(_init_adapter(arch, f"adapter/group/{attr}/{g}", rng))
    if arch.gate_mode == GATE_LEARNED and arch.n_branches > 1:
        h, B = arch.gate_hidden, arch.n_branches
        for l in arch.adapter_layer_ids:
            d = dims[l]
            t[f"gate/{l}/W1"] = _glorot(rng, (h, d))
            t[f"gate/{l}/W2"] = np.zeros((B, h))
    return ParamSet(arch, t)


def _init_adapter(arch: Arch, prefix: str, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """Pair `<prefix>/<l>/A|B` for every adapted layer l: W_a ~ N(0, 0.02), W_b = 0."""
    t: Dict[str, np.ndarray] = {}
    for l in arch.adapter_layer_ids:
        k, d, r = arch.layer_dims[l + 1], arch.layer_dims[l], arch.layer_rank(l)
        t[f"{prefix}/{l}/A"] = rng.normal(0.0, 0.02, size=(k, r))
        t[f"{prefix}/{l}/B"] = np.zeros((r, d))
    return t


def init_user_adapter(arch: Arch, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """The user-level adapter tensors (none without a user adapter), drawn in
    the same order by init_params and by each client's private stream."""
    return _init_adapter(arch, "adapter/user", rng) if arch.use_user_adapter else {}


def count_params(ps: ParamSet, tags: Optional[Iterable[str]] = None, pattern: str = "*") -> int:
    """Total scalar count over tensors matching the tag filter and pattern."""
    wanted = set(TAGS) if tags is None else set(tags)
    return int(
        sum(t.size for n, t in ps.tensors.items() if ps.tags[n] in wanted and fnmatch.fnmatchcase(n, pattern))
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    # exp(-|x|) never overflows; both forms below equal the logistic function
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _softmax(a):
    z = a - a.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def embed_user(ps: ParamSet, attrs: Sequence[int]) -> np.ndarray:
    """Concatenated user attribute embedding (one table lookup per attribute)."""
    ps.arch.user_schema.validate_values(attrs, "user")
    return np.concatenate(
        [ps.tensors[f"user_emb/{name}"][v] for name, v in zip(ps.arch.user_schema.names, attrs)]
    )


def embed_item(ps: ParamSet, attrs: Sequence[int]) -> np.ndarray:
    ps.arch.item_schema.validate_values(attrs, "item")
    return np.concatenate(
        [ps.tensors[f"item_emb/{name}"][v] for name, v in zip(ps.arch.item_schema.names, attrs)]
    )


# ---------------------------------------------------------------------------
# Layout plan: every name, offset and liveness a step reads, decided once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _EmbedPlan:
    """Where the d-wide slots of a layer-0 input row read.

    Slot s (user attributes in schema order, then item attributes) reads
    table names[s]. The tables' rows, stacked end to end, form one (R, d)
    source, where row r of slot s is source row base[..., s] + r; a cohort's
    stacked (C, p, d) table gives client c's copy its own base, which is
    then (C, 1, slots). The gradient of every live table is one np.bincount
    over the flat source index (source row * d + column) of each live slot
    element; `grads` lists each live table's (name, start, stop, shape) in
    that flat count.
    """

    names: Tuple[str, ...]
    n_user: int                        # user attribute slots, the first ones
    cards: np.ndarray                  # rows of each slot's table
    base: np.ndarray                   # source row of row 0: (slots,) or (C, 1, slots)
    cols: np.ndarray                   # arange(d)
    live: Union[slice, np.ndarray]     # slots whose table takes a gradient
    grads: Tuple[Tuple[str, int, int, Tuple[int, ...]], ...]
    size: int                          # flat length the gradient count covers

    def check(self, UA: np.ndarray, VA: np.ndarray):
        """Raise unless UA and VA have one column per user and item slot and
        every attribute value indexes a row of its slot's table."""
        if UA.shape[-1] != self.n_user or UA.shape[-1] + VA.shape[-1] != len(self.names):
            raise ShapeError("UA/VA must have one column per user/item attribute")
        for first, A in ((0, UA), (self.n_user, VA)):
            bad = (A < 0) | (A >= self.cards[first : first + A.shape[-1]])
            if bad.any():
                s = first + int(np.nonzero(bad)[-1][0])
                raise ShapeError(f"attribute value out of range for table {self.names[s]!r}")


@dataclass(frozen=True)
class _LayerPlan:
    """Tensor names of one MLP layer and the ones that take a gradient.

    `adapters` holds each adapter branch's (W_a, W_b) names in gate-column
    order after the common branch: the user adapter if the arch has one,
    then one group adapter per grouping attribute. A layer without adapters
    has none and no gate.
    """

    W: str
    b: str
    adapters: Tuple[Tuple[str, str], ...]
    gate: Optional[Tuple[str, str]]    # (W1, W2) of a learned gate
    gate_mode: str
    live: FrozenSet[str]


@dataclass(frozen=True)
class _Plan:
    embed: _EmbedPlan
    layers: Tuple[_LayerPlan, ...]


def _plan(ps: ParamSet, groups: Optional[Dict[str, int]]) -> _Plan:
    """The layout plan of `ps` (arch, tags, cohort shape) with the group
    adapters named by `groups`."""
    arch, t = ps.arch, ps.tensors
    live = {n for n, tag in ps.tags.items() if tag != FROZEN}

    names = tuple(f"user_emb/{a}" for a in arch.user_schema.names) + tuple(
        f"item_emb/{a}" for a in arch.item_schema.names
    )
    d = arch.embed_dim
    starts = np.cumsum([0] + [t[n].size for n in names])  # flat, in source order
    base = starts[:-1] // d
    stacked = [t[n] for n in names if t[n].ndim == 3]
    if stacked:  # client c's copy of a stacked (C, p, d) table starts c * p rows later
        strides = np.array([t[n].shape[1] if t[n].ndim == 3 else 0 for n in names])
        base = base + np.arange(stacked[0].shape[0])[:, None, None] * strides
    on = [s for s, n in enumerate(names) if n in live]
    live_slots = np.array(on, dtype=np.intp)
    if on and on == list(range(on[0], on[-1] + 1)):
        live_slots = slice(on[0], on[-1] + 1)  # selects a view, not a copy
    embed = _EmbedPlan(
        names=names,
        n_user=len(arch.user_schema),
        cards=np.array([t[n].shape[-2] for n in names]),
        base=base,
        cols=np.arange(d),
        live=live_slots,
        grads=tuple((names[s], int(starts[s]), int(starts[s + 1]), t[names[s]].shape) for s in on),
        size=int(starts[on[-1] + 1]) if on else 0,
    )

    layers = []
    for l in range(arch.n_layers):
        prefixes = []
        if l in arch.adapter_layer_ids:
            if arch.use_user_adapter:
                prefixes.append(f"adapter/user/{l}")
            for attr in arch.group_attrs:
                if groups is None or attr not in groups:
                    raise ShapeError(f"group index for attribute {attr!r} required")
                prefixes.append(f"adapter/group/{attr}/{groups[attr]}/{l}")
        adapters = tuple((p + "/A", p + "/B") for p in prefixes)
        gate = (f"gate/{l}/W1", f"gate/{l}/W2") if adapters and arch.gate_mode == GATE_LEARNED else None
        W, b = f"mlp/{l}/W", f"mlp/{l}/b"
        used = {W, b, *(n for pair in adapters for n in pair), *(gate or ())}
        layers.append(_LayerPlan(W, b, adapters, gate, arch.gate_mode, frozenset(live & used)))
    return _Plan(embed, tuple(layers))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass
class _LayerCache:
    """Forward intermediates of one layer.

    V lists the branch outputs (n, k) in gate-column order, the common MLP
    branch first, then the layer plan's adapter branches; adapter branch
    V[j] (j >= 1) has the bottleneck T[j - 1] = X @ W_b.T (n, r). A layer
    without adapters has V = [Z], no T and no gate fields.
    """

    X: np.ndarray                      # layer input (..., n, d)
    V: List[np.ndarray]                # branch outputs, common first
    T: Sequence[np.ndarray] = ()       # adapter bottlenecks
    G: Optional[np.ndarray] = None     # branch weights (..., n, B)
    Z1: Optional[np.ndarray] = None    # gate hidden pre-activation (..., n, h)
    S: Optional[np.ndarray] = None     # relu(Z1)

    @property
    def gated(self) -> bool:
        return self.G is not None


@dataclass
class ForwardCache:
    rows: np.ndarray                   # source row of each input slot (..., n, slots)
    layers: List[_LayerCache]
    probs: np.ndarray
    plan: _Plan


def _layer_branches(lp: _LayerPlan, t: Dict[str, np.ndarray], X: np.ndarray):
    """(fused pre-activation Z, intermediates) of one layer on input X."""
    b = t[lp.b]
    # a cohort's (C, k) bias broadcasts over each client's rows
    C = X @ t[lp.W].mT
    C += b if b.ndim == 1 else b[:, None, :]
    if not lp.adapters:
        return C, _LayerCache(X, [C])
    T = [X @ t[B].mT for _, B in lp.adapters]
    cache = _LayerCache(X, [C] + [h @ t[A].mT for h, (A, _) in zip(T, lp.adapters)], T)
    n_branches = len(cache.V)
    if lp.gate is not None:
        W1, W2 = lp.gate
        cache.Z1 = X @ t[W1].mT
        cache.S = _relu(cache.Z1)
        cache.G = _softmax(cache.S @ t[W2].mT)
    elif lp.gate_mode == GATE_UNIFORM:
        cache.G = np.full(X.shape[:-1] + (n_branches,), 1.0 / n_branches)
    else:  # GATE_COMMON: one-hot on the common branch
        cache.G = np.zeros(X.shape[:-1] + (n_branches,))
        cache.G[..., 0] = 1.0
    Z = np.zeros_like(C)
    for j, v in enumerate(cache.V):
        Z += cache.G[..., j : j + 1] * v
    return Z, cache


def forward_batch(
    ps: ParamSet,
    UA: np.ndarray,
    VA: np.ndarray,
    groups: Optional[Dict[str, int]] = None,
    want_cache: bool = False,
    plan: Optional[_Plan] = None,
):
    """Full forward pass on a batch; returns (probs, cache).

    UA (..., n, |user attrs|) and VA (..., n, |item attrs|) are integer
    attribute value matrices; a cohort's batch has a leading client axis.
    `groups` names the group adapter each attribute's branch reads (one
    client's batch); required iff the arch has group branches. A caller that
    passes the layout `plan` of `ps` and `groups` has checked every
    attribute value against its table (sgd_epoch does, once per epoch).
    """
    UA = np.asarray(UA)
    VA = np.asarray(VA)
    if UA.ndim < 2 or UA.shape[:-1] != VA.shape[:-1]:
        raise ShapeError("UA/VA must be (..., n, attrs) with equal leading shapes")
    if plan is None:
        plan = _plan(ps, groups)
        plan.embed.check(UA, VA)
    t = ps.tensors
    emb = plan.embed
    # one gather of every slot's row from the tables stacked end to end
    rows = np.concatenate((UA, VA), axis=-1) + emb.base
    source = np.concatenate([t[n].reshape(-1, len(emb.cols)) for n in emb.names])
    X = source.take(rows, axis=0).reshape(rows.shape[:-1] + (-1,))
    layers: List[_LayerCache] = []
    top = len(plan.layers) - 1
    for l, lp in enumerate(plan.layers):
        Z, cache = _layer_branches(lp, t, X)
        if want_cache:
            layers.append(cache)
        # without a cache, inference holds one layer's arrays at a time
        del X, cache
        X = _relu(Z) if l < top else _sigmoid(Z)
        del Z
    probs = X[..., 0]
    if not want_cache:
        return probs, None
    return probs, ForwardCache(rows=rows, layers=layers, probs=probs, plan=plan)


def predict(
    ps: ParamSet,
    user_attrs: Sequence[int],
    item_attrs: Sequence[int],
    groups: Optional[Dict[str, int]] = None,
) -> float:
    """Interaction probability for one (user, item) pair."""
    ps.arch.user_schema.validate_values(user_attrs, "user")
    ps.arch.item_schema.validate_values(item_attrs, "item")
    probs, _ = forward_batch(ps, np.array([user_attrs]), np.array([item_attrs]), groups)
    return float(probs[0])


def bce_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probability clamp at EPS_CLAMP."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.size == 0:
        raise ShapeError("empty batch")
    if p.shape != y.shape:
        raise ShapeError("predictions/labels length mismatch")
    p = np.minimum(np.maximum(p, EPS_CLAMP), 1.0 - EPS_CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def backward_batch(
    ps: ParamSet, cache: ForwardCache, labels: np.ndarray, valid: Optional[np.ndarray] = None
) -> Dict[str, np.ndarray]:
    """Analytic gradients of mean BCE w.r.t. every non-frozen tensor used in
    the forward pass. Frozen tensors still propagate but get no gradient entry.
    Labels may be soft targets in [0, 1].

    A cohort's batch passes `valid` (C, n): its padding rows are False, and
    each client's mean runs over its own valid rows, so a client without any
    gets exactly zero gradients.
    """
    t = ps.tensors
    y = np.asarray(labels, dtype=float)
    grads: Dict[str, np.ndarray] = {}
    # sigmoid + BCE at the top: dL/dz_last = (p - y) / n
    if valid is None:
        dZ = ((cache.probs - y) / y.shape[-1])[..., None]
    else:
        n = np.maximum(valid.sum(axis=-1, keepdims=True), 1)
        dZ = np.where(valid, (cache.probs - y) / n, 0.0)[..., None]
    for l in range(len(cache.layers) - 1, -1, -1):
        lp, c = cache.plan.layers[l], cache.layers[l]
        X = c.X
        W = t[lp.W]
        if not c.gated:
            dC = dZ
            dX = dC @ W
        else:
            G = c.G
            dX = np.zeros_like(X)
            if lp.gate is not None:
                W1, W2 = lp.gate
                dG = np.stack([np.sum(v * dZ, axis=-1) for v in c.V], axis=-1)
                dA = G * (dG - np.sum(G * dG, axis=-1, keepdims=True))
                if W2 in lp.live:
                    grads[W2] = dA.mT @ c.S
                dZ1 = (dA @ t[W2]) * (c.Z1 > 0)
                if W1 in lp.live:
                    grads[W1] = dZ1.mT @ X
                dX += dZ1 @ t[W1]
            dC = G[..., :1] * dZ
            for j, (T, (A, B)) in enumerate(zip(c.T, lp.adapters), start=1):
                dV = G[..., j : j + 1] * dZ
                if A in lp.live:
                    grads[A] = dV.mT @ T
                dT = dV @ t[A]
                if B in lp.live:
                    grads[B] = dT.mT @ X
                dX += dT @ t[B]
            dX += dC @ W

        if lp.W in lp.live:
            grads[lp.W] = dC.mT @ X
        if lp.b in lp.live:
            grads[lp.b] = dC.sum(axis=-2)
        if l > 0:  # X = relu(previous Z), positive exactly where that Z is
            dZ = dX * (X > 0)

    # one scatter: dX is now the gradient of the layer-0 input
    grads.update(_embed_grads(cache.plan.embed, cache.rows, dX))
    return grads


def _embed_grads(emb: _EmbedPlan, rows: np.ndarray, dX: np.ndarray) -> Dict[str, np.ndarray]:
    """Gradient of each live embedding table from the layer-0 input gradient
    dX (..., n, slots * d), `rows` the source row of each slot: every element's
    gradient added at its flat source index, in batch order as a row-by-row
    loop would add them."""
    if not emb.grads:
        return {}
    d = len(emb.cols)
    flat = np.bincount(
        ((rows[..., emb.live] * d)[..., None] + emb.cols).ravel(),
        weights=dX.reshape(rows.shape + (d,))[..., emb.live, :].ravel(),
        minlength=emb.size,
    )
    return {name: flat[lo:hi].reshape(shape) for name, lo, hi, shape in emb.grads}


def sgd_step(ps: ParamSet, grads: Dict[str, np.ndarray], lr: float) -> ParamSet:
    """theta <- theta - lr * g for every tensor in the gradient set."""
    if lr <= 0:
        raise ShapeError(f"learning rate {lr} must be > 0")
    tensors = dict(ps.tensors)
    try:
        for n, g in grads.items():
            tensors[n] = ps.tensors[n] - lr * g
    except KeyError as e:
        raise ShapeError(f"unknown tensor name {e.args[0]!r}") from None
    return ps._replaced(tensors)


def sgd_epoch(
    ps: ParamSet,
    UA: np.ndarray,
    VA: np.ndarray,
    y: np.ndarray,
    groups: Optional[Dict[str, int]],
    batch_size: int,
    lr: float,
    rng: Union[np.random.Generator, Sequence[np.random.Generator]],
    want_loss: bool = False,
    counts: Optional[np.ndarray] = None,
) -> Tuple[ParamSet, Optional[float]]:
    """One epoch of minibatch SGD: the rows in one `rng.permutation` order,
    cut into batches of `batch_size`, one forward/backward/update per batch.

    Returns (updated ParamSet, epoch loss). With `want_loss` (a single model
    only) the epoch loss is the row-weighted mean of each batch's BCE before
    its update; otherwise it is None and bce_loss is never called.

    A cohort of C clients (`ps` stacked on a leading client axis) passes its
    train shards padded to N rows and stacked, UA (C, N, a), VA (C, N, a') and
    y (C, N), with `counts` (C,) valid rows per client and `rng` one Generator
    per client. Client c's rows run in `rng[c].permutation(counts[c])` order,
    its padding rows last, so each step trains every client on the batch it
    would get alone; a client with no valid rows left in a step is unchanged.
    """
    plan = _plan(ps, groups)
    plan.embed.check(UA, VA)
    valid = None
    if counts is None:
        order = rng.permutation(len(y))
    else:
        C, N = y.shape
        # flat row c * N + j of the stacked shards
        order = np.arange(C * N).reshape(C, N)
        for c, (g, n_c) in enumerate(zip(rng, counts)):
            order[c, :n_c] = c * N + g.permutation(n_c)
        UA, VA, y = UA.reshape(C * N, -1), VA.reshape(C * N, -1), y.reshape(C * N)
        valid = np.arange(N) < counts[:, None]
    # the epoch's rows in order; each batch is a slice
    UA, VA, y = UA[order], VA[order], y[order]
    n = order.shape[-1]
    loss = 0.0
    for start in range(0, n, batch_size):
        rows = slice(start, start + batch_size)
        yb = y[..., rows]
        probs, cache = forward_batch(ps, UA[..., rows, :], VA[..., rows, :], groups, want_cache=True, plan=plan)
        if want_loss:
            loss += bce_loss(probs, yb) * len(yb)
        ps = sgd_step(ps, backward_batch(ps, cache, yb, None if valid is None else valid[:, rows]), lr)
    return ps, (loss / n if want_loss else None)


# ---------------------------------------------------------------------------
# Serialization (bit-exact round trip)
# ---------------------------------------------------------------------------


def save_params(ps: ParamSet, path: str):
    meta = json.dumps({"arch": asdict(ps.arch), "tags": ps.tags}, sort_keys=True)
    np.savez(path, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8), **ps.tensors)


def load_params(path: str) -> ParamSet:
    with np.load(path) as z:
        meta = json.loads(bytes(z["__meta__"]).decode())
        tensors = {n: z[n] for n in z.files if n != "__meta__"}
    # JSON stored the Arch's tuples as lists and its schemas as dicts of lists
    arch = Arch(**{
        k: AttributeSchema(tuple(v["names"]), tuple(v["cards"])) if isinstance(v, dict)
        else tuple(v) if isinstance(v, list) else v
        for k, v in meta["arch"].items()
    })
    return ParamSet(arch, tensors, dict(meta["tags"]))
