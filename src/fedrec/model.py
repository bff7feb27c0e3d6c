"""Model core: embedding lookup, gated low-rank-adapter MLP, BCE loss and
exact analytic gradients.

A ParamSet holds named float64 tensors, each with a partition tag (frozen /
private / shared). Names:

    user_emb/<attr>                  (p, d) table
    item_emb/<attr>                  (p, d) table
    mlp/<l>/W  mlp/<l>/b             layer weight (k, d) and bias (k,)
    adapter/user/<l>/A|B             user-level low-rank pair (k, r) / (r, d)
    adapter/group/<attr>/<g>/<l>/A|B group-level pair for group g of <attr>
    gate/<l>/W1|W2                   gate mapping (h, d) / (n_branches, h)

Each tag's tensors lie end to end in one float64 vector, in the order a
`Layout` fixes, and `tensors[name]` is a reshaped view into its tag's vector.
The private and shared vectors are the two halves of one buffer, `trained`,
so an SGD step is one update of that buffer.

Forward, backward and SGD see only a cohort of clients: a ParamSet whose
trained buffer has a row per client, (C, P), while the frozen vector stays
one and broadcasts. A cohort is laid out as the model with one group per
grouping attribute (`Layout.cohort`): row c holds client c's own group's
adapters under group 0's names. `cohort_of` lifts a model into one, and
`cohort_mean` averages a cohort's shared rows back into it; a plain model
trains and scores as a cohort of one.

`sgd_epochs` trains every epoch of a call through what it sets up once: it
checks the rows, copies the trained buffer, builds the layout plan
(`_plan`) with every view a step reads, of the tensors and of their
gradients, and turns the rows into the source rows the embedding gather
reads and the flat index at which the gradient scatter starts each slot's
row. An epoch shuffles each client's rows and takes both in its order; a
step slices its batch's, runs one forward pass (`_forward`, which
`forward_batch` shares), one backward pass and one update of the trained
buffer. The backward pass computes the layer-0 input gradient only at the
trained tables' columns. With `want_loss` the steps keep their
probabilities, and each epoch's loss is one pass over them at its end.

Inference (`forward_batch`) scores a cohort's rows in blocks of about
INFER_ROWS along its row axis (`_blocks`), so its memory is bounded by a
block; the scores were measured bit-equal to one pass over every row.
"""
from __future__ import annotations

import functools
import json
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import AttributeSchema, DataError

FROZEN, PRIVATE, SHARED = "frozen", "private", "shared"
TAGS = (FROZEN, PRIVATE, SHARED)

GATE_LEARNED, GATE_UNIFORM, GATE_COMMON, GATE_NONE = "learned", "uniform", "common", "none"
ADAPTER_LAYERS = ("all", "hidden")  # adapters on every MLP layer, or on all but the output

GROUP_PREFIX = "adapter/group/"

EPS_CLAMP = 1e-12  # BCE probability clamp

INFER_ROWS = 4096  # rows an inference pass scores at a time (see _blocks)

Shape = Tuple[int, ...]


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
    adapter_layers: str = "all"  # one of ADAPTER_LAYERS
    use_user_adapter: bool = True
    group_attrs: Tuple[str, ...] = ()
    gate_mode: str = GATE_LEARNED

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ShapeError("embed_dim must be >= 1")
        if self.adapter_layers not in ADAPTER_LAYERS:
            raise ShapeError(f"bad adapter_layers {self.adapter_layers!r}")
        if self.gate_mode not in (GATE_LEARNED, GATE_UNIFORM, GATE_COMMON, GATE_NONE):
            raise ShapeError(f"bad gate_mode {self.gate_mode!r}")
        for j, a in enumerate(self.group_attrs):
            self.user_schema.index(a)
            if a in self.group_attrs[:j]:
                raise ShapeError(f"duplicate attribute {a!r}")
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


ZERO, NORMAL, GLOROT = "zero", "normal", "glorot"  # initializers


def _pair(arch: Arch, prefix: str) -> Dict[str, Tuple[Shape, str]]:
    """Shape and initializer of the adapter pair `<prefix>/<l>/A|B`, (k, r)
    and (r, d), of every adapted layer l: W_a ~ N(0, 0.02), W_b = 0."""
    out = {}
    for l in arch.adapter_layer_ids:
        k, d, r = arch.layer_dims[l + 1], arch.layer_dims[l], arch.layer_rank(l)
        out[f"{prefix}/{l}/A"], out[f"{prefix}/{l}/B"] = ((k, r), NORMAL), ((r, d), ZERO)
    return out


def user_adapter_specs(arch: Arch) -> Dict[str, Tuple[Shape, str]]:
    """The user-level adapter's tensors (none without a user adapter)."""
    return _pair(arch, "adapter/user") if arch.use_user_adapter else {}


def _specs(arch: Arch) -> Dict[str, Tuple[Shape, str]]:
    """Every tensor's shape and initializer, in the order init_params draws
    them. Embeddings and MLP weights are Glorot-uniform, biases zero; every
    adapter branch starts as the zero map, and gate W_2 is zero so the gate
    starts uniform over branches."""
    d, dims = arch.embed_dim, arch.layer_dims
    out: Dict[str, Tuple[Shape, str]] = {}
    for side, schema in (("user", arch.user_schema), ("item", arch.item_schema)):
        for name, p in zip(schema.names, schema.cards):
            out[f"{side}_emb/{name}"] = ((p, d), GLOROT)
    for l in range(arch.n_layers):
        out[f"mlp/{l}/W"], out[f"mlp/{l}/b"] = ((dims[l + 1], dims[l]), GLOROT), ((dims[l + 1],), ZERO)
    out.update(user_adapter_specs(arch))
    for attr, card in arch.group_cards().items():
        for g in range(card):
            out.update(_pair(arch, f"{GROUP_PREFIX}{attr}/{g}"))
    for l in arch.adapter_layer_ids if arch.gate_mode == GATE_LEARNED else ():
        out[f"gate/{l}/W1"] = ((arch.gate_hidden, dims[l]), GLOROT)
        out[f"gate/{l}/W2"] = ((arch.n_branches, arch.gate_hidden), ZERO)
    return out


@dataclass(frozen=True)
class Layout:
    """Where each tensor of a ParamSet sits.

    Each tag's tensors lie end to end in one vector: the embedding tables in
    slot order, each layer's W and b, the user adapter and the gate, which
    make up the tag's `common` range, then every grouping attribute's groups
    in order, a group's adapter pairs (layer by layer, A then B) being one
    segment (`span`). A cohort's layout (`cohort`) is this model's layout
    with one group per grouping attribute, group 0, whose adapters row c of
    a cohort holds client c's own group's.
    """

    entries: Dict[str, Tuple[str, int, int, Shape]]       # name -> (tag, start, stop, shape)
    sizes: Dict[str, int]                                 # tag -> vector length
    common: Dict[str, int]                                # tag -> length of its common range
    groups: Dict[str, Tuple[Tuple[str, ...], ...]]        # attribute -> names in each group's segment

    def start(self, tag: str) -> int:
        """Where the tag's vector starts in the trained buffer."""
        return self.sizes[PRIVATE] if tag == SHARED else 0

    def span(self, attr: str, g: int) -> Tuple[str, int, int]:
        """(tag, start, stop) of group g's segment of `attr` in its tag's
        vector; its tensors must carry one tag."""
        first, last = self.entries[self.groups[attr][g][0]], self.entries[self.groups[attr][g][-1]]
        return first[0], first[1], last[2]

    @functools.cached_property
    def cohort(self) -> "Layout":
        """The layout of a cohort of this model's clients. Raises ShapeError
        unless each grouping attribute's adapters carry one trained tag."""
        sizes, own = dict(self.common), {}
        for attr, segments in self.groups.items():
            tags = {self.entries[n][0] for names in segments for n in names}
            if len(tags) != 1 or FROZEN in tags:
                raise ShapeError(f"group adapters of {attr!r} carry different or frozen partition tags")
            tag, start, stop = self.span(attr, 0)
            for n in segments[0]:  # after the common range, attribute by attribute
                _, a, b, shape = self.entries[n]
                own[n] = (tag, sizes[tag] + a - start, sizes[tag] + b - start, shape)
            sizes[tag] += stop - start
        others = {n for segments in self.groups.values() for names in segments[1:] for n in names}
        entries = {n: own.get(n, e) for n, e in self.entries.items() if n not in others}
        return replace(self, entries=entries, sizes=sizes, groups={a: s[:1] for a, s in self.groups.items()})


def _layout(arch: Arch, tags: Dict[str, str]) -> Layout:
    """The layout of a model of `arch` whose tensors carry `tags`. Its
    entries keep the order init_params draws the tensors in."""
    specs = _specs(arch)
    if set(tags) != set(specs):
        raise ShapeError("tensor names differ from the arch's")
    groups = {
        attr: tuple(tuple(_pair(arch, f"{GROUP_PREFIX}{attr}/{g}")) for g in range(card))
        for attr, card in arch.group_cards().items()
        if arch.adapter_layer_ids
    }
    grouped = [n for segments in groups.values() for names in segments for n in names]
    placed: Dict[str, Tuple[str, int, int, Shape]] = {}
    sizes = dict.fromkeys(TAGS, 0)
    for names in ([n for n in specs if n not in set(grouped)], grouped):
        common = dict(sizes)  # in the end, the lengths before the group segments
        for name in names:
            tag, shape = tags[name], specs[name][0]
            placed[name] = (tag, sizes[tag], sizes[tag] + math.prod(shape), shape)
            sizes[tag] = placed[name][2]
    return Layout({n: placed[n] for n in specs}, sizes, common, groups)


def _views(layout: Layout, trained: np.ndarray, frozen: Optional[np.ndarray] = None):
    """(vectors, tensors) of a buffer laid out as the trained buffer of
    `layout`, and of a frozen vector if given: each tag's vector (..., size)
    and each of those tags' tensors as a view into its vector."""
    n = layout.sizes[PRIVATE]
    flat = {PRIVATE: trained[..., :n], SHARED: trained[..., n:]}
    if frozen is not None:
        flat[FROZEN] = frozen
    return flat, {
        name: flat[tag][..., a:b].reshape(flat[tag].shape[:-1] + shape)
        for name, (tag, a, b, shape) in layout.entries.items()
        if tag in flat
    }


class ParamSet:
    """Named float64 tensors with partition tags; treated as an immutable value.

    `flat[tag]` is the tag's vector and `tensors[name]` a view into it; the
    private and shared vectors are the halves of `trained`. Only the private
    copy an sgd_epochs call trains has a `plan`, and sgd_step updates only
    such a copy in place; every other ParamSet's buffers are never written.
    """

    __slots__ = ("arch", "tags", "layout", "frozen", "trained", "flat", "tensors", "plan")

    def __init__(self, arch: Arch, tensors: Dict[str, np.ndarray], tags: Optional[Dict[str, str]] = None):
        tags = tags if tags is not None else {n: SHARED for n in tensors}
        if set(tags) != set(tensors):
            raise ShapeError("tags must cover exactly the tensor names")
        lay = _layout(arch, tags)
        self._bind(arch, lay, np.empty(lay.sizes[FROZEN]), np.empty(lay.sizes[PRIVATE] + lay.sizes[SHARED]))
        self._fill(tensors)

    @classmethod
    def from_vectors(cls, arch: Arch, layout: Layout, frozen: np.ndarray, trained: np.ndarray) -> "ParamSet":
        """The ParamSet over these buffers, which the caller hands over."""
        ps = cls.__new__(cls)
        ps._bind(arch, layout, frozen, trained)
        return ps

    def _bind(self, arch: Arch, layout: Layout, frozen: np.ndarray, trained: np.ndarray):
        self.arch, self.layout, self.plan = arch, layout, None
        self.tags = {name: tag for name, (tag, *_) in layout.entries.items()}
        self.frozen, self.trained = frozen, trained
        self.flat, self.tensors = _views(layout, trained, frozen)

    def _fill(self, tensors: Dict[str, np.ndarray]):
        """Write `tensors` into this ParamSet's fresh buffers; the frozen
        vector, which copies and cohorts share, is read-only after."""
        for name, t in tensors.items():
            if np.shape(t) != self.tensors[name].shape:
                raise ShapeError(f"tensor {name!r} has shape {np.shape(t)}, not {self.tensors[name].shape}")
            self.tensors[name][...] = t
        self.frozen.flags.writeable = False
        self.flat, self.tensors = _views(self.layout, self.trained, self.frozen)  # read-only views of it

    def copy(self) -> "ParamSet":
        """This ParamSet over a copy of its trained buffer; frozen is shared."""
        return ParamSet.from_vectors(self.arch, self.layout, self.frozen, self.trained.copy())

    def with_tensors(self, updates: Dict[str, np.ndarray]) -> "ParamSet":
        unknown = set(updates) - set(self.tensors)
        if unknown:
            raise ShapeError(f"unknown tensor names {sorted(unknown)}")
        out = ParamSet.from_vectors(self.arch, self.layout, self.frozen.copy(), self.trained.copy())
        out._fill(updates)
        return out

    def check_finite(self):
        """Raise ShapeError naming a tensor that holds a non-finite value."""
        for vec in self.flat.values():
            if not np.isfinite(vec).all():
                bad = next(n for n, t in self.tensors.items() if not np.isfinite(t).all())
                raise ShapeError(f"tensor {bad} contains non-finite values")


def _glorot(rng: np.random.Generator, shape: Tuple[int, int]) -> np.ndarray:
    a = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-a, a, size=shape)


def _draw(specs: Dict[str, Tuple[Shape, str]], rng: np.random.Generator) -> Dict[str, np.ndarray]:
    """Values for `specs`, drawn from `rng` in order."""
    return {
        name: np.zeros(shape) if init == ZERO
        else rng.normal(0.0, 0.02, size=shape) if init == NORMAL
        else _glorot(rng, shape)
        for name, (shape, init) in specs.items()
    }


def init_params(arch: Arch, seed) -> ParamSet:
    """Seeded initialization; see _specs."""
    return ParamSet(arch, _draw(_specs(arch), np.random.default_rng(seed)))


def init_user_adapter(arch: Arch, rng: np.random.Generator) -> np.ndarray:
    """The user-level adapter's tensors end to end as one row (empty without
    a user adapter), drawn in the same order by init_params and by each
    client's private stream."""
    return np.concatenate([np.zeros(0), *(t.ravel() for t in _draw(user_adapter_specs(arch), rng).values())])


def count_params(ps: ParamSet, tags: Optional[Iterable[str]] = None) -> int:
    """Total scalar count over the tensors whose tag is in `tags` (default all)."""
    wanted = set(TAGS) if tags is None else set(tags)
    return int(sum(t.size for n, t in ps.tensors.items() if ps.tags[n] in wanted))


def _group_rows(arch: Arch, groups) -> np.ndarray:
    """`groups` as a (C, |group attrs|) index array; ShapeError unless each row names a group of each."""
    groups, cards = np.asarray(groups, dtype=np.intp), np.array(list(arch.group_cards().values()), dtype=np.intp)
    if groups.ndim != 2 or groups.shape[1] != len(cards) or ((groups < 0) | (groups >= cards)).any():
        raise ShapeError(f"each client needs a group index of each grouping attribute {arch.group_cards()}")
    return groups


def cohort_of(ps: ParamSet, groups, private: Optional[np.ndarray] = None) -> ParamSet:
    """Model `ps` as a cohort of len(groups) clients (`Layout.cohort`): row
    c of the trained buffer holds the model's trained vectors with, per
    grouping attribute j, group groups[c][j]'s adapters and, with `private`,
    the user adapter private[c]; frozen stays the model's vector. Raises
    ShapeError unless each row names a group of each grouping attribute, and
    unless those groups' adapters (and a user adapter that `private` sets)
    carry one trained tag."""
    arch, lay = ps.arch, ps.layout
    groups = _group_rows(arch, groups)
    cohort = lay.cohort
    trained = np.empty((len(groups), cohort.sizes[PRIVATE] + cohort.sizes[SHARED]))
    for tag in (PRIVATE, SHARED):
        start = cohort.start(tag)
        trained[:, start : start + cohort.common[tag]] = ps.flat[tag][: cohort.common[tag]]
    for attr, segments in lay.groups.items():  # each client's own group's adapters, under group 0's names
        tag, a, b = cohort.span(attr, 0)
        first = lay.span(attr, 0)[1]
        table = ps.flat[tag][first : first + len(segments) * (b - a)].reshape(-1, b - a)
        trained[:, cohort.start(tag) + a : cohort.start(tag) + b] = table[groups[:, arch.group_attrs.index(attr)]]
    if private is not None:
        trained[:, user_columns(cohort, arch)] = private
    return ParamSet.from_vectors(arch, cohort, ps.frozen, trained)


def _mean_rows(rows: np.ndarray, scalars: List[int]) -> np.ndarray:
    """The mean of `rows` (m, P) over its rows, bit for bit as numpy averages
    each tensor on its own: row by row, except that a one-scalar tensor's
    column, at `scalars`, is one contiguous reduction (summed pairwise)."""
    out = np.mean(rows, axis=0)
    if scalars:
        out[scalars] = np.mean(np.ascontiguousarray(rows[:, scalars].T), axis=1)
    return out


def cohort_mean(ps: ParamSet, groups, shared: np.ndarray) -> ParamSet:
    """`cohort_of`'s inverse for the shared tensors: model `ps` with the
    mean, in row order, of the rows of `shared` (C, P), each the shared
    vector of `cohort_of(ps, groups)`'s row: one mean over the common range,
    and one per group over its members' rows. The adapters of groups without
    a row, and frozen and private tensors, keep their values. Raises
    ShapeError unless there is a row per client, P wide, and as cohort_of
    does on the groups and tags."""
    arch, lay = ps.arch, ps.layout
    groups, cohort = _group_rows(arch, groups), lay.cohort
    if not len(groups) or np.shape(shared) != (len(groups), cohort.sizes[SHARED]):
        raise ShapeError(f"uploads {np.shape(shared)} are not {len(groups)} rows of {cohort.sizes[SHARED]} scalars")
    trained, start, n = ps.trained.copy(), lay.start(SHARED), cohort.common[SHARED]
    # the columns of one-scalar tensors, in the common range and in the segments
    ones = [a for tag, a, b, _ in cohort.entries.values() if tag == SHARED and b - a == 1]
    trained[start : start + n] = _mean_rows(shared[:, :n], [a for a in ones if a < n])
    for attr in cohort.groups:
        tag, at, stop = cohort.span(attr, 0)
        if tag != SHARED:
            continue
        segment_ones = [a - at for a in ones if at <= a < stop]
        column = groups[:, arch.group_attrs.index(attr)]
        # np.bincount, not np.unique, which would import numpy.ma (~1.7 MB)
        for g in np.flatnonzero(np.bincount(column)):
            _, first, last = lay.span(attr, g)
            trained[start + first : start + last] = _mean_rows(shared[column == g, at:stop], segment_ones)
    return ParamSet.from_vectors(arch, lay, ps.frozen, trained)


def user_columns(lay: Layout, arch: Arch) -> slice:
    """The trained buffer's columns holding the user adapter, which every
    client keeps for itself."""
    spans = [lay.entries[name] for name in user_adapter_specs(arch)]
    if not spans:
        return slice(0, 0)
    tag = spans[0][0]
    if tag == FROZEN or any(t != tag for t, *_ in spans):
        raise ShapeError("the user adapter must carry one trained partition tag")
    return slice(lay.start(tag) + spans[0][1], lay.start(tag) + spans[-1][2])


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    # exp(-|x|) never overflows; 1 / (1 + e) for x >= 0 and e / (1 + e)
    # below both equal the logistic function
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _row_sum(x):
    """np.add.reduce(x, axis=-1) bit for bit, as column adds.

    Over a narrow last axis numpy runs its reduction loop once per row, which
    costs more than the adds. Its loop starts from the identity +0.0 (so a
    row of -0.0 sums to +0.0), adds a row of fewer than 8 in column order and
    a row of 8 as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)). A wider
    row is left to numpy, whose reduction is then the faster.
    """
    k = x.shape[-1]
    if k > 8:
        return np.add.reduce(x, axis=-1)
    if k < 8:
        s = x[..., 0] + 0.0
        for j in range(1, k):
            s += x[..., j]
        return s
    s = x[..., 0] + x[..., 1]
    s += x[..., 2] + x[..., 3]
    t = x[..., 4] + x[..., 5]
    t += x[..., 6] + x[..., 7]
    s += t
    s += 0.0
    return s


def _softmax(a):
    """Softmax over the last axis; the max is a chain of column maxima and
    the sum a _row_sum, bit for bit numpy's row reductions."""
    m = a[..., 0]
    for j in range(1, a.shape[-1]):
        m = np.maximum(m, a[..., j])
    e = np.exp(a - m[..., None])
    return e / _row_sum(e)[..., None]


# ---------------------------------------------------------------------------
# Layout plan: every view and offset a step reads, decided once
# ---------------------------------------------------------------------------


# a tensor as the plan holds it: (view of its value, view of its gradient,
# None for a frozen tensor)
Param = Tuple[np.ndarray, Optional[np.ndarray]]


@dataclass(frozen=True)
class _EmbedPlan:
    """Where the d-wide slots of a layer-0 input row read.

    Slot s (user attributes in schema order, then item attributes) reads
    its attribute's table. Each tag's tables are the start of its vector, a
    `piece`; the pieces' rows, stacked end to end with the trained tags'
    first, form one (R, d) source, where row r of slot s is source row
    base[..., s] + r. A stacked (C, E) piece holds client c's copy of its
    tables c * E / d rows later, so base is then (C, 1, slots).
    The gradient of the trained tables is one np.bincount over the flat
    source index (source row * d + column) of each live slot element; the
    count's [start, stop) range of each trained piece is the piece's
    gradient, `grads` (start, stop, gradient view).

    A backward pass computes the layer-0 input gradient only at `span`, the
    live slots' columns widened to multiples of 8, and the scatter reads the
    live ones among them (`span_live`). A product over such a span had the
    bits of the full-width product at its columns on the OpenBLAS 0.3.31
    build it was measured on, over 36,936 shapes; TestLayerZeroColumnCut
    guards it. Narrower spans did not always keep them: a cut to 1 to 4
    columns of every 8 changed bits, and so did a single column, which numpy
    hands to BLAS's dot or gemv in place of gemm, even when aligned; a
    one-column span therefore widens to every column.
    """

    pieces: Tuple[np.ndarray, ...]
    source: Optional[np.ndarray]       # the source as a view, when one piece of one client holds every table
    base: np.ndarray                   # source row of row 0: (slots,) or (C, 1, slots)
    cols: np.ndarray                   # arange(d)
    live: Union[slice, np.ndarray]     # slots whose table takes a gradient
    span: slice                        # the layer-0 input columns its gradient is computed at
    span_live: Union[slice, np.ndarray]  # the live slots' columns within span
    grads: Tuple[Tuple[int, int, np.ndarray], ...]
    size: int                          # flat length the gradient count covers

    def stacked(self) -> np.ndarray:
        """The (R, d) source: every piece's rows, end to end."""
        if self.source is not None:
            return self.source
        return np.concatenate([p.reshape(-1, len(self.cols)) for p in self.pieces])

    def restack(self, source: np.ndarray):
        """Write the trained tables' current rows into `source`, a copy that
        stacked() returned; a view needs nothing."""
        if self.source is None:
            flat = source.reshape(-1)
            for piece, (start, stop, _) in zip(self.pieces, self.grads):  # the trained pieces lead
                flat[start:stop].reshape(piece.shape)[...] = piece

    def scatter_rows(self, rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The flat source index (..., n, live slots) of column 0 of each
        live slot's row in `rows`: where the gradient count adds the slot's
        first element."""
        return np.multiply(rows[..., self.live], len(self.cols), out=out)


@dataclass(frozen=True)
class _LayerPlan:
    """One MLP layer's tensors.

    `adapters` holds each adapter branch's (W_a, W_b) in gate-column order
    after the common branch: the user adapter if the arch has one, then one
    group adapter per grouping attribute. A layer without adapters has none
    and no gate.
    """

    W: Param
    b: Param                               # its value (..., 1, k) broadcasts over the rows
    adapters: Tuple[Tuple[Param, Param], ...]
    gate: Optional[Tuple[Param, Param]]    # (W1, W2) of a learned gate
    gate_mode: str


@dataclass(frozen=True)
class _Plan:
    embed: _EmbedPlan
    layers: Tuple[_LayerPlan, ...]
    grad: np.ndarray                   # laid out as the trained buffer; filled by each backward pass


def _index(ix: List[int]) -> Union[slice, np.ndarray]:
    """`ix` as an index of the last axis: a slice when it is a run, which
    selects a view rather than a copy."""
    return slice(ix[0], ix[-1] + 1) if ix and ix == list(range(ix[0], ix[-1] + 1)) else np.array(ix, dtype=np.intp)


def _plan(ps: ParamSet, grads: bool = True) -> _Plan:
    """The layout plan of cohort `ps`, each row with its own groups'
    adapters; without `grads`, an inference plan that holds no gradient.
    Trained tensors a backward pass does not use read zero gradient."""
    arch, lay = ps.arch, ps.layout
    grad = np.zeros(ps.trained.shape if grads else 0)
    gflat, gtensors = _views(lay, grad) if grads else ({}, {})
    params = {name: (t, gtensors.get(name)) for name, t in ps.tensors.items()}

    d = arch.embed_dim
    names = tuple(f"user_emb/{a}" for a in arch.user_schema.names) + tuple(
        f"item_emb/{a}" for a in arch.item_schema.names
    )
    slots = [lay.entries[n] for n in names]
    pieces, row, rows_of, piece_grads = [], 0, {}, []
    for tag in (PRIVATE, SHARED, FROZEN):
        width = max((b for t, _, b, _ in slots if t == tag), default=0)  # tables lead the vector
        if not width:
            continue
        piece = ps.flat[tag][..., :width]
        rows_of[tag] = (row, width // d if piece.ndim > 1 else 0)
        if tag in gflat:
            piece_grads.append((row * d, row * d + piece.size, gflat[tag][..., :width]))
        pieces.append(piece)
        row += piece.size // d
    base = np.array([rows_of[t][0] + a // d for t, a, _, _ in slots])
    per_client = np.array([rows_of[t][1] for t, _, _, _ in slots])
    if per_client.any():  # client c's copy of a stacked piece starts c * E / d rows later
        clients = next(p.shape[0] for p in pieces if p.ndim > 1)
        base = base + np.arange(clients)[:, None, None] * per_client
    on = [s for s, (t, _, _, _) in enumerate(slots) if t != FROZEN]
    cols = [s * d + j for s in on for j in range(d)]  # the live slots' layer-0 input columns
    lo, hi = (cols[0] // 8 * 8, min(arch.input_dim, -(-(cols[-1] + 1) // 8) * 8)) if cols else (0, 0)
    if hi - lo == 1:
        lo, hi = 0, arch.input_dim
    embed = _EmbedPlan(
        pieces=tuple(pieces),
        # one client's one piece, as a cohort of one's, is read in place
        source=pieces[0].reshape(-1, d) if len(pieces) == 1 and math.prod(pieces[0].shape[:-1]) == 1 else None,
        base=base,
        cols=np.arange(d),
        live=_index(on),
        span=slice(lo, hi),
        span_live=_index([c - lo for c in cols]),
        grads=tuple(piece_grads),
        size=piece_grads[-1][1] if piece_grads else 0,
    )

    layers = []
    for l in range(arch.n_layers):
        adapters = []
        if l in arch.adapter_layer_ids:
            branches = (["adapter/user"] if arch.use_user_adapter else []) + [
                f"{GROUP_PREFIX}{attr}/0" for attr in arch.group_attrs  # each row's own group's
            ]
            adapters = [(params[f"{p}/{l}/A"], params[f"{p}/{l}/B"]) for p in branches]
        gate = None
        if adapters and arch.gate_mode == GATE_LEARNED:
            gate = (params[f"gate/{l}/W1"], params[f"gate/{l}/W2"])
        b, gb = params[f"mlp/{l}/b"]
        layers.append(_LayerPlan(params[f"mlp/{l}/W"], (b[..., None, :], gb), tuple(adapters), gate, arch.gate_mode))
    return _Plan(embed, tuple(layers), grad)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


@dataclass(slots=True)
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
    S: Optional[np.ndarray] = None     # gate hidden activation relu(X @ W1.T) (..., n, h)

    @property
    def gated(self) -> bool:
        return self.G is not None


@dataclass(slots=True)
class ForwardCache:
    index: np.ndarray                  # the batch's _EmbedPlan.scatter_rows
    layers: List[_LayerCache]
    probs: np.ndarray
    plan: _Plan


def _layer_branches(lp: _LayerPlan, X: np.ndarray):
    """(fused pre-activation Z, intermediates) of one layer on input X."""
    (W, _), (b, _) = lp.W, lp.b
    C = X @ W.mT
    C += b
    if not lp.adapters:
        return C, _LayerCache(X, [C])
    T = [X @ B.mT for _, (B, _) in lp.adapters]
    cache = _LayerCache(X, [C] + [h @ A.mT for h, ((A, _), _) in zip(T, lp.adapters)], T)
    n_branches = len(cache.V)
    if lp.gate is not None:
        (W1, _), (W2, _) = lp.gate
        cache.S = _relu(X @ W1.mT)
        cache.G = _softmax(cache.S @ W2.mT)
    elif lp.gate_mode == GATE_UNIFORM:
        cache.G = np.full(X.shape[:-1] + (n_branches,), 1.0 / n_branches)
    else:  # GATE_COMMON: one-hot on the common branch
        cache.G = np.zeros(X.shape[:-1] + (n_branches,))
        cache.G[..., 0] = 1.0
    Z = np.zeros_like(C)
    for j, v in enumerate(cache.V):
        Z += cache.G[..., j : j + 1] * v
    return Z, cache


def _forward(plan: _Plan, rows: np.ndarray, want_cache: bool, source: np.ndarray):
    """(probs, each layer's cache or None) of the batch whose layer-0 input
    slots read the source rows `rows` (..., n, slots) of `source`, the
    plan's tables stacked end to end (`_EmbedPlan.stacked`)."""
    # one gather of every slot's row from the tables stacked end to end
    X = source.take(rows, axis=0).reshape(rows.shape[:-1] + (-1,))
    layers: List[_LayerCache] = []
    top = len(plan.layers) - 1
    for l, lp in enumerate(plan.layers):
        Z, cache = _layer_branches(lp, X)
        if want_cache:
            layers.append(cache)
        # without a cache, inference holds one layer's arrays at a time
        del X, cache
        X = _relu(Z) if l < top else _sigmoid(Z)
        del Z
    return X[..., 0], (layers if want_cache else None)


def _blocks(n: int) -> List[slice]:
    """The inference blocks of a cohort's n rows per client: they start at multiples
    of INFER_ROWS and the last one takes the remainder, INFER_ROWS to
    2 * INFER_ROWS - 1 rows (all n rows when n < 2 * INFER_ROWS).

    With these blocks every row got the bits of one pass over all rows on
    the OpenBLAS 0.3.31 (AVX-512) build they were measured on, from 4,095 to
    60,000 rows, with one BLAS thread and with two; TestBlockedInference guards
    it. That is a property of the BLAS kernels, not a consequence of the
    placement. Other splits changed bits there: 8,193 student rows cut into
    three blocks of 2,731, and 8,193 teacher rows with a 1-row last block.
    """
    starts = range(0, n - INFER_ROWS + 1, INFER_ROWS) or range(1)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def _check_rows(arch: Arch, UA: np.ndarray, VA: np.ndarray):
    """Raise ShapeError unless UA and VA have one column per user and item
    attribute and every attribute value indexes a row of its table."""
    sides = (("user", arch.user_schema, UA), ("item", arch.item_schema, VA))
    if any(A.shape[-1] != len(schema) for _, schema, A in sides):
        raise ShapeError("UA/VA must have one column per user/item attribute")
    for side, schema, A in sides:
        bad = (A < 0) | (A >= np.array(schema.cards))
        if bad.any():
            table = f"{side}_emb/{schema.names[int(np.nonzero(bad)[-1][0])]}"
            raise ShapeError(f"attribute value out of range for table {table!r}")


def forward_batch(ps: ParamSet, UA: np.ndarray, VA: np.ndarray):
    """Inference on a batch; returns (probs, None).

    UA (C, n, |user attrs|) and VA (C, n, |item attrs|) are integer
    attribute value matrices, row c for client c of cohort `ps`, which
    `cohort_of` lifts from a model with each client's groups. A plain model
    without grouping attributes, with UA (n, ...) and VA (n, ...), is scored
    as `cohort_of(ps, [()])`, a cohort of one, whatever its partition tags:
    probs (n,). The rows are scored in blocks (`_blocks`).
    """
    UA, VA = np.asarray(UA), np.asarray(VA)
    plain = ps.trained.ndim == 1
    if plain:
        ps, UA, VA = cohort_of(ps, [()]), UA[None], VA[None]
    if UA.ndim != 3 or UA.shape[:-1] != VA.shape[:-1] or len(UA) != len(ps.trained):
        raise ShapeError("UA/VA must be (C, n, attrs) with equal leading shapes, C the cohort's clients")
    _check_rows(ps.arch, UA, VA)
    plan = _plan(ps, grads=False)
    rows = np.concatenate((UA, VA), axis=-1) + plan.embed.base
    source = plan.embed.stacked()  # once per call, not once per block
    probs = np.empty(rows.shape[:-1])
    for block in _blocks(probs.shape[-1]):
        probs[:, block] = _forward(plan, rows[:, block], False, source)[0]
    return (probs[0] if plain else probs), None


def backward_batch(cache: ForwardCache, labels: np.ndarray, valid: Optional[np.ndarray] = None) -> np.ndarray:
    """Analytic gradients of mean BCE w.r.t. every non-frozen tensor used in
    the forward pass. Frozen tensors still propagate but get no gradient.
    Labels may be soft targets in [0, 1].

    The gradients go into the plan's one gradient buffer (`cache.plan.grad`,
    (C, P) as the trained buffer, which is returned), so the next backward
    pass of the same plan overwrites them.

    The layer-0 input gradient feeds only the trained embedding tables, so
    it is computed at their columns alone (`_EmbedPlan.span`), and not at
    all without a trained table.

    A batch with padding rows passes `valid` (C, n), False at those rows:
    each client's mean then runs over its own valid rows, so a client
    without any gets exactly zero gradients.
    """
    y = np.asarray(labels, dtype=float)
    # sigmoid + BCE at the top: dL/dz_last = (p - y) / n
    if valid is None:
        dZ = ((cache.probs - y) / y.shape[-1])[..., None]
    else:
        # each client's valid rows as one product, not a reduction per row
        n = np.maximum(valid @ np.ones(valid.shape[-1]), 1.0)[..., None]
        dZ = np.where(valid, (cache.probs - y) / n, 0.0)[..., None]
    emb = cache.plan.embed
    for l in range(len(cache.layers) - 1, -1, -1):
        lp, c = cache.plan.layers[l], cache.layers[l]
        X = c.X
        (W, gW), (_, gb) = lp.W, lp.b
        terms = []  # (output gradient, weight) of each product of X, in the order dX adds them
        if not c.gated:
            dC = dZ
        else:
            G = c.G
            if lp.gate is not None:
                (W1, gW1), (W2, gW2) = lp.gate
                dG = np.empty(G.shape)
                for j, v in enumerate(c.V):
                    dG[..., j] = _row_sum(v * dZ)
                dA = G * (dG - _row_sum(G * dG)[..., None])
                if gW2 is not None:
                    np.matmul(dA.mT, c.S, out=gW2)
                dZ1 = (dA @ W2) * (c.S > 0)  # relu(z) > 0 exactly where z > 0
                if gW1 is not None:
                    np.matmul(dZ1.mT, X, out=gW1)
                terms.append((dZ1, W1))
            dC = G[..., :1] * dZ
            for j, (T, ((A, gA), (B, gB))) in enumerate(zip(c.T, lp.adapters), start=1):
                dV = G[..., j : j + 1] * dZ
                if gA is not None:
                    np.matmul(dV.mT, T, out=gA)
                dT = dV @ A
                if gB is not None:
                    np.matmul(dT.mT, X, out=gB)
                terms.append((dT, B))
        terms.append((dC, W))
        if gW is not None:
            np.matmul(dC.mT, X, out=gW)
        if gb is not None:
            np.add.reduce(dC, axis=-2, out=gb)
        if l > 0:  # X = relu(previous Z), positive exactly where that Z is
            dZ = _input_grad(terms)
            dZ *= X > 0
        elif emb.grads:  # one scatter of the layer-0 input gradient
            _embed_grads(emb, cache.index, _input_grad(terms, emb.span)[..., emb.span_live])
    return cache.plan.grad


def _input_grad(terms, cols: Optional[slice] = None):
    """The gradient of a layer's input at columns `cols` (all without): the
    products of each output gradient with its weight's columns, added in
    `terms` order. An ungated layer's one product stands alone; a gated
    layer's sum starts from +0.0 (0.0 + p and p + 0.0 are the same bits)."""
    g, M = terms[0]
    dX = g @ (M if cols is None else M[..., cols])
    if len(terms) > 1:
        dX += 0.0
        for g, M in terms[1:]:
            dX += g @ (M if cols is None else M[..., cols])
    return dX


def _embed_grads(emb: _EmbedPlan, index: np.ndarray, dX: np.ndarray):
    """Write the gradient of every trained embedding table from the layer-0
    input gradient at the live slots' columns, dX (..., n, live slots * d),
    `index` the batch's _EmbedPlan.scatter_rows: every element's gradient
    added at its flat source index, in batch order as a row-by-row loop
    would add them."""
    flat = np.bincount((index[..., None] + emb.cols).ravel(), weights=dX.ravel(), minlength=emb.size)
    for start, stop, grad in emb.grads:
        grad[...] = flat[start:stop].reshape(grad.shape)


def sgd_step(ps: ParamSet, grads: np.ndarray, lr: float) -> ParamSet:
    """theta <- theta - lr * g: one update of the trained buffer, in place
    on the private copy an epoch trains (see ParamSet); any other `ps` is
    copied first, so no caller's buffer is ever written."""
    if lr <= 0:
        raise ShapeError(f"learning rate {lr} must be > 0")
    out = ps if ps.plan is not None else ps.copy()
    out.trained -= lr * grads
    return out


def sgd_epochs(
    ps: ParamSet,
    UA: np.ndarray,
    VA: np.ndarray,
    y: np.ndarray,
    counts: Sequence[int],
    batch_size: int,
    lr: float,
    rngs: Sequence[np.random.Generator],
    epochs: int,
    want_loss: bool = False,
) -> Tuple[ParamSet, Optional[np.ndarray]]:
    """`epochs` epochs of minibatch SGD for cohort `ps` of C clients.

    Client c trains on row c of UA (C, N, a), VA (C, N, a') and y (C, N),
    whose first counts[c] rows are valid, in `rngs[c].permutation(counts[c])`
    order, its padding rows last, so each step trains every client on the
    batch it would get alone; a client with no valid rows left in a step is
    unchanged. One forward/backward/update per batch of `batch_size` trains
    one copy of the trained buffer in place, through one layout plan, and
    leaves `ps` as it was. The input is checked once (rows, attribute values,
    batch size, epochs), else ShapeError.

    Returns (updated ParamSet, epoch losses): with `want_loss` (each client
    with a row) an (epochs, C) array of each client's row-weighted mean of
    its batches' mean BCE before their updates (see _epoch_loss), else None.
    """
    UA, VA, y, counts = np.asarray(UA), np.asarray(VA), np.asarray(y), np.asarray(counts)
    if UA.ndim != y.ndim + 1 or UA.shape[:-1] != y.shape or VA.shape[:-1] != y.shape:
        raise ShapeError(f"UA {UA.shape}, VA {VA.shape} and y {y.shape} must have the same rows")
    C = len(ps.trained)
    if y.ndim != 2 or ps.trained.ndim != 2 or len(y) != C or counts.shape != (C,) or len(rngs) != C:
        raise ShapeError("a cohort of C clients (trained buffer (C, P)) trains on y (C, N), C counts and C Generators")
    if batch_size < 1:
        raise ShapeError(f"batch size {batch_size} must be >= 1")
    if epochs < 0:
        raise ShapeError(f"epochs {epochs} must be >= 0")
    if want_loss and epochs and not counts.all():
        raise ShapeError("an epoch loss needs at least one row of every client")
    _check_rows(ps.arch, UA, VA)
    ps = ps.copy()
    ps.plan = plan = _plan(ps)
    # the gather rows of every row, flat row c * N + j of the stacked shards;
    # each epoch takes them, and the labels, in its order into the same
    # arrays and turns them into scatter rows; each step slices its batch's
    N = y.shape[1]
    rows = (np.concatenate((UA, VA), axis=-1) + plan.embed.base).reshape(C * N, plan.embed.base.shape[-1])
    y = y.reshape(C * N)
    valid = None if (counts == N).all() else np.arange(N) < counts[:, None]  # no mask without padding
    source = plan.embed.stacked()  # restacked in place before each step
    losses = np.empty((epochs, C)) if want_loss else None
    epoch_rows = epoch_index = epoch_y = None
    for e in range(epochs):
        order = np.arange(C * N).reshape(C, N)
        for row, g, n_c in zip(order, rngs, counts):
            g.shuffle(row[:n_c])  # the draws and swaps of g.permutation(n_c)
        # mode="clip" (every index is in range) lets take write into out unbuffered
        epoch_rows = np.take(rows, order, axis=0, out=epoch_rows, mode="clip")
        epoch_index = plan.embed.scatter_rows(epoch_rows, out=epoch_index)
        epoch_y = np.take(y, order, out=epoch_y, mode="clip")
        probs = np.empty((C, N)) if want_loss else None
        for start in range(0, N, batch_size):
            batch = slice(start, start + batch_size)
            plan.embed.restack(source)
            p, layers = _forward(plan, epoch_rows[:, batch], True, source)
            if want_loss:
                probs[:, batch] = p
            cache = ForwardCache(epoch_index[:, batch], layers, p, plan)
            mask = None if valid is None else valid[:, batch]
            ps = sgd_step(ps, backward_batch(cache, epoch_y[:, batch], mask), lr)
        if want_loss:
            losses[e] = [_epoch_loss(p[:n], t[:n], batch_size) for p, t, n in zip(probs, epoch_y, counts)]
    ps.plan = None  # the caller gets a value, not a buffer to train
    return ps, losses


def train_plain(
    ps: ParamSet, UA: np.ndarray, VA: np.ndarray, y: np.ndarray, batch_size: int, lr: float,
    rng: np.random.Generator, epochs: int,
) -> Tuple[ParamSet, List[float]]:
    """sgd_epochs on plain model `ps` without group adapters, over rows
    UA (n, a), VA (n, a') and y (n,), trained as a cohort of one with
    Generator `rng`. Returns (trained model, each epoch's loss)."""
    lone = cohort_of(ps, [()])
    out, losses = sgd_epochs(lone, UA[None], VA[None], y[None], [len(y)], batch_size, lr, [rng], epochs, True)
    # without group segments, a cohort row is laid out as the model's vector
    return ParamSet.from_vectors(ps.arch, ps.layout, ps.frozen, out.trained[0]), losses[:, 0].tolist()


def _epoch_loss(probs: np.ndarray, y: np.ndarray, batch_size: int) -> float:
    """The row-weighted mean of each batch's mean BCE, probabilities clamped
    at EPS_CLAMP, over an epoch's probabilities and labels in epoch order.

    Bit for bit the per-batch sum: each batch's terms are summed with one
    reduction of their own, as a per-batch loss would sum them, and the
    batch losses times their sizes are added one by one in batch order.
    """
    p = np.minimum(np.maximum(probs, EPS_CLAMP), 1.0 - EPS_CLAMP)
    terms = y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    n = len(terms)
    full = n - n % batch_size
    sums = np.add.reduce(terms[:full].reshape(-1, batch_size), axis=-1)
    sizes = np.full(len(sums), float(batch_size))
    if full < n:
        sums = np.append(sums, np.add.reduce(terms[full:]))
        sizes = np.append(sizes, float(n - full))
    # add.accumulate adds in order; add.reduce would add pairwise
    return float(np.add.accumulate(-(sums / sizes) * sizes)[-1] / n)


# ---------------------------------------------------------------------------
# Serialization (bit-exact round trip)
# ---------------------------------------------------------------------------


def save_params(ps: ParamSet, path: str):
    meta = json.dumps({"arch": asdict(ps.arch), "tags": ps.tags}, sort_keys=True)
    np.savez(path, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8), **ps.tensors)


def load_params(path: str) -> ParamSet:
    """The ParamSet `save_params` wrote to `path`. A file that is not such a
    checkpoint (not a zip, truncated, a tensor renamed, missing or
    reshaped, the metadata damaged) raises DataError naming the path."""
    try:
        with np.load(path) as z:
            meta = json.loads(bytes(z["__meta__"]).decode())
            tensors = {n: z[n] for n in z.files if n != "__meta__"}
        if not (isinstance(meta, dict) and isinstance(meta.get("tags"), dict) and isinstance(meta.get("arch"), dict)
                and meta["arch"].keys() == {f.name for f in fields(Arch)}):
            raise ValueError("the metadata is not an arch's fields and a tag table")
        # JSON stored the Arch's tuples as lists and its schemas as dicts of lists
        arch = Arch(**{
            k: AttributeSchema(tuple(v["names"]), tuple(v["cards"])) if isinstance(v, dict)
            else tuple(v) if isinstance(v, list) else v
            for k, v in meta["arch"].items()
        })
        return ParamSet(arch, tensors, dict(meta["tags"]))
    # what np.load, zipfile (RuntimeError: an unsupported or encrypted
    # member), json, the metadata check and the Arch and ParamSet checks
    # raise on such a file
    except (OSError, EOFError, RuntimeError, KeyError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise DataError(f"{path}: not a readable checkpoint ({type(exc).__name__}: {exc})") from None
