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
"""
from __future__ import annotations

import fnmatch
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
        return ParamSet(self.arch, merged, dict(self.tags))

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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(a):
    z = a - a.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


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


def _embed_columns(arch: Arch, UA: np.ndarray, VA: np.ndarray) -> List[Tuple[str, np.ndarray]]:
    """(embedding table, row index per example) for each d-wide slot of a
    layer-0 input row: user attributes in schema order, then item attributes."""
    return [(f"user_emb/{name}", UA[:, j]) for j, name in enumerate(arch.user_schema.names)] + [
        (f"item_emb/{name}", VA[:, j]) for j, name in enumerate(arch.item_schema.names)
    ]


def _embed_batch(ps: ParamSet, UA: np.ndarray, VA: np.ndarray) -> np.ndarray:
    return np.concatenate([ps.tensors[key][rows] for key, rows in _embed_columns(ps.arch, UA, VA)], axis=1)


@dataclass
class _LayerCache:
    """Forward intermediates of one layer.

    V lists the branch outputs (n, k) in gate-column order: the common MLP
    branch first, then the user adapter if the arch has one, then one group
    adapter per grouping attribute. Adapter branch V[j] (j >= 1) has the
    bottleneck T[j - 1] = X @ W_b.T (n, r) and the tensor-name prefix
    P[j - 1], `adapter/user/<l>` or `adapter/group/<attr>/<g>/<l>`. A layer
    without adapters has V = [Z], empty T and P, and no gate fields.
    """

    X: np.ndarray                      # layer input (n, d)
    Z: np.ndarray                      # fused pre-activation (n, k)
    V: List[np.ndarray]                # branch outputs, common first
    T: List[np.ndarray] = field(default_factory=list)  # adapter bottlenecks
    P: List[str] = field(default_factory=list)         # adapter name prefixes
    G: Optional[np.ndarray] = None     # branch weights (n, B)
    Z1: Optional[np.ndarray] = None    # gate hidden pre-activation (n, h)
    S: Optional[np.ndarray] = None     # relu(Z1)

    @property
    def gated(self) -> bool:
        return self.G is not None


@dataclass
class ForwardCache:
    UA: np.ndarray
    VA: np.ndarray
    layers: List[_LayerCache]
    probs: np.ndarray


def _layer_branches(ps: ParamSet, l: int, X: np.ndarray, groups: Optional[Dict[str, int]]):
    arch = ps.arch
    t = ps.tensors
    C = X @ t[f"mlp/{l}/W"].T + t[f"mlp/{l}/b"]
    cache = _LayerCache(X=X, Z=C, V=[C])
    if l not in arch.adapter_layer_ids:
        return C, cache
    if arch.use_user_adapter:
        cache.P.append(f"adapter/user/{l}")
    for attr in arch.group_attrs:
        if groups is None or attr not in groups:
            raise ShapeError(f"group index for attribute {attr!r} required")
        cache.P.append(f"adapter/group/{attr}/{groups[attr]}/{l}")
    for p in cache.P:
        cache.T.append(X @ t[p + "/B"].T)
        cache.V.append(cache.T[-1] @ t[p + "/A"].T)

    B = arch.n_branches
    if arch.gate_mode == GATE_LEARNED:
        cache.Z1 = X @ t[f"gate/{l}/W1"].T
        cache.S = _relu(cache.Z1)
        cache.G = _softmax(cache.S @ t[f"gate/{l}/W2"].T)
    elif arch.gate_mode == GATE_UNIFORM:
        cache.G = np.full((X.shape[0], B), 1.0 / B)
    else:  # GATE_COMMON: one-hot on the common branch
        cache.G = np.zeros((X.shape[0], B))
        cache.G[:, 0] = 1.0
    Z = np.zeros_like(C)
    for j, v in enumerate(cache.V):
        Z += cache.G[:, j : j + 1] * v
    cache.Z = Z
    return Z, cache


def forward_batch(
    ps: ParamSet,
    UA: np.ndarray,
    VA: np.ndarray,
    groups: Optional[Dict[str, int]] = None,
    want_cache: bool = False,
):
    """Full forward pass on a batch; returns (probs, cache).

    UA (n, |user attrs|) and VA (n, |item attrs|) are integer attribute value
    matrices. `groups` fixes the group-adapter selection for the whole batch
    (one client's batch); required iff the arch has group branches.
    """
    UA = np.asarray(UA)
    VA = np.asarray(VA)
    if UA.ndim != 2 or VA.ndim != 2 or UA.shape[0] != VA.shape[0]:
        raise ShapeError("UA/VA must be 2-d with equal row counts")
    X = _embed_batch(ps, UA, VA)
    layers: List[_LayerCache] = []
    for l in range(ps.arch.n_layers):
        Z, cache = _layer_branches(ps, l, X, groups)
        layers.append(cache)
        X = _relu(Z) if l < ps.arch.n_layers - 1 else _sigmoid(Z)
    probs = X[:, 0]
    if not want_cache:
        return probs, None
    return probs, ForwardCache(UA=UA, VA=VA, layers=layers, probs=probs)


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
    p = np.clip(p, EPS_CLAMP, 1.0 - EPS_CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def backward_batch(ps: ParamSet, cache: ForwardCache, labels: np.ndarray) -> Dict[str, np.ndarray]:
    """Analytic gradients of mean BCE w.r.t. every non-frozen tensor used in
    the forward pass. Frozen tensors still propagate but get no gradient entry.
    Labels may be soft targets in [0, 1].
    """
    arch = ps.arch
    t = ps.tensors
    y = np.asarray(labels, dtype=float)
    n = y.shape[0]
    grads: Dict[str, np.ndarray] = {}

    def add(name, val):
        # every tensor name occurs once per pass, so nothing accumulates
        if ps.tags[name] != FROZEN:
            grads[name] = val

    # sigmoid + BCE at the top: dL/dz_last = (p - y) / n
    dZ = ((cache.probs - y) / n)[:, None]
    for l in range(arch.n_layers - 1, -1, -1):
        c = cache.layers[l]
        X = c.X
        W = t[f"mlp/{l}/W"]
        if not c.gated:
            dC = dZ
            dX = dC @ W
        else:
            G = c.G
            dX = np.zeros_like(X)
            if arch.gate_mode == GATE_LEARNED:
                dG = np.stack([np.sum(v * dZ, axis=1) for v in c.V], axis=1)
                dA = G * (dG - np.sum(G * dG, axis=1, keepdims=True))
                add(f"gate/{l}/W2", dA.T @ c.S)
                dZ1 = (dA @ t[f"gate/{l}/W2"]) * (c.Z1 > 0)
                add(f"gate/{l}/W1", dZ1.T @ X)
                dX += dZ1 @ t[f"gate/{l}/W1"]
            dC = G[:, :1] * dZ
            for j, (T, p) in enumerate(zip(c.T, c.P), start=1):
                dV = G[:, j : j + 1] * dZ
                add(p + "/A", dV.T @ T)
                dT = dV @ t[p + "/A"]
                add(p + "/B", dT.T @ X)
                dX += dT @ t[p + "/B"]
            dX += dC @ W

        add(f"mlp/{l}/W", dC.T @ X)
        add(f"mlp/{l}/b", dC.sum(axis=0))
        if l > 0:
            dZ = dX * (cache.layers[l - 1].Z > 0)

    # embedding tables; dX is now the gradient of the layer-0 input
    d = arch.embed_dim
    for j, (key, rows) in enumerate(_embed_columns(arch, cache.UA, cache.VA)):
        if ps.tags[key] != FROZEN:
            gtab = np.zeros_like(t[key])
            np.add.at(gtab, rows, dX[:, j * d : (j + 1) * d])
            grads[key] = gtab
    return grads


def sgd_step(ps: ParamSet, grads: Dict[str, np.ndarray], lr: float) -> ParamSet:
    """theta <- theta - lr * g for every tensor in the gradient set."""
    if lr <= 0:
        raise ShapeError(f"learning rate {lr} must be > 0")
    return ps.with_tensors({n: ps.tensors[n] - lr * g for n, g in grads.items()})


def sgd_epoch(
    ps: ParamSet,
    UA: np.ndarray,
    VA: np.ndarray,
    y: np.ndarray,
    groups: Optional[Dict[str, int]],
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
    want_loss: bool = False,
) -> Tuple[ParamSet, Optional[float]]:
    """One epoch of minibatch SGD: the rows in one `rng.permutation` order,
    cut into batches of `batch_size`, one forward/backward/update per batch.

    Returns (updated ParamSet, epoch loss). With `want_loss` the epoch loss is
    the row-weighted mean of each batch's BCE before its update; otherwise it
    is None and bce_loss is never called.
    """
    n = len(y)
    order = rng.permutation(n)
    loss = 0.0
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        probs, cache = forward_batch(ps, UA[idx], VA[idx], groups, want_cache=True)
        if want_loss:
            loss += bce_loss(probs, y[idx]) * len(idx)
        ps = sgd_step(ps, backward_batch(ps, cache, y[idx]), lr)
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
