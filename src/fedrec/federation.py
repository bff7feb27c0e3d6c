"""Federated orchestration: parameter partition, centralized pretraining,
local training of a round's clients as one stacked cohort, selective
upload/aggregation and round loop.

Each user is one client. Under the `fedpa` partition rules
(`experiment.FEDPA_RULES`) the item embeddings and MLP stay frozen at their
warm-start values, the user-level adapter is private to the client, and the
user embeddings, group adapters and gate are shared and aggregated by
unweighted mean.

A run holds every client's state as arrays with a leading client axis
(`ClientArrays`), and a round works on rows of them: it gathers its
participants by index into one cohort ParamSet (`model.cohort_of`),
trains it, writes their user adapters back by index, and uploads the
cohort's shared matrix as one `UploadBatch`, an upload being a row of the
server's cohort: noise adds one matrix to it, and aggregation is
`model.cohort_mean`, the inverse of `cohort_of`.
"""
from __future__ import annotations

import fnmatch
import json
import logging
import math
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .data import (
    FED_TEST,
    FED_TRAIN,
    FED_VAL,
    MIN_FED_INTERACTIONS,
    PRETRAIN,
    SPLITS,
    Dataset,
    narrow_key,
    runs,
    sample_negatives,
)
from .metrics import NonFiniteScoreError, UndefinedMetricError, score_rows
from .model import (
    SHARED,
    Arch,
    Layout,
    ParamSet,
    ShapeError,
    cohort_mean,
    cohort_of,
    forward_batch,
    init_params,
    init_user_adapter,
    sgd_epochs,
    train_plain,
    user_adapter_specs,
    user_columns,
)
from .privacy import noise_uploads
from .streams import derive_generators

if TYPE_CHECKING:  # experiment imports this module
    from .experiment import ExperimentConfig

log = logging.getLogger(__name__)

class FederationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Parameter partition
# ---------------------------------------------------------------------------


def partition(ps: ParamSet, rules: Tuple[Tuple[str, str], ...]) -> ParamSet:
    """`ps` with each tensor tagged by the one rule (name pattern, tag) whose
    pattern its name matches; a tensor that matches no rule or more than one
    raises FederationError."""
    tags = {}
    for name in ps.tensors:
        hits = [tag for pat, tag in rules if fnmatch.fnmatchcase(name, pat)]
        if len(hits) != 1:
            raise FederationError(f"tensor {name!r} matches {len(hits)} partition rules")
        tags[name] = hits[0]
    return ParamSet(ps.arch, ps.tensors, tags)


# ---------------------------------------------------------------------------
# Client and server state
# ---------------------------------------------------------------------------


@dataclass
class StackedShards:
    """One split's shards of every client, padded to the longest and stacked:
    UA (N, L, |user attrs|), VA (N, L, |item attrs|), y (N, L), and each
    client's count of valid rows (N,). Padding rows hold value 0 and label 0."""

    UA: np.ndarray
    VA: np.ndarray
    y: np.ndarray
    counts: np.ndarray

    def rows(self, idx: np.ndarray):
        """(UA, VA, y, counts) of the clients at rows idx, cut to the longest
        of their shards."""
        counts = self.counts[idx]
        n = int(counts.max(initial=0))
        return self.UA[idx, :n], self.VA[idx, :n], self.y[idx, :n], counts


@dataclass
class ClientArrays:
    """Every client's state as arrays, row i holding the federated user of
    the i-th smallest id; a run updates the private rows in place."""

    uids: np.ndarray                  # (N,)
    groups: np.ndarray                # (N, |arch.group_attrs|) group of each grouping attribute
    private: np.ndarray               # (N, P) user adapter, its tensors end to end in init order
    shards: Dict[str, StackedShards]  # "train", "val", "test" -> shards


@dataclass
class UploadBatch:
    """A round's uploads, row c of every array belonging to client uids[c]:
    row c of `shared` is client c's shared vector as a row of the server's
    cohort (`Layout.cohort`), whose group segments hold the adapters of the
    groups in row c of `groups` (columns follow the grouping attributes)."""

    uids: np.ndarray                  # (C,)
    groups: np.ndarray                # (C, |arch.group_attrs|)
    shared: np.ndarray                # (C, P)

    @property
    def n_scalars(self) -> int:
        """Scalars each client uploads."""
        return self.shared.shape[1]


@dataclass
class RoundReport:
    round: int
    n_participants: int
    uploaded_per_client: int
    seconds: float
    val_auc: Optional[float] = None
    val_precision: Optional[float] = None
    skipped: bool = False

    def to_json(self) -> str:
        rec = {
            "round": self.round,
            "participants": self.n_participants,
            "uploaded_scalars_per_client": self.uploaded_per_client,
            "val_auc": self.val_auc,
            "val_precision": self.val_precision,
            "skipped": self.skipped,
            "seconds": round(self.seconds, 6),
        }
        return json.dumps(rec, sort_keys=True, allow_nan=False)


@dataclass
class EvalSummary:
    mean_auc: float
    mean_precision: Optional[float]
    n_clients: int
    n_auc_valid: int


# ---------------------------------------------------------------------------
# Example assembly
# ---------------------------------------------------------------------------


def pretrain_examples(dataset: Dataset, seed: int, neg_ratio: int = 4):
    """Training examples (UA, VA, y) for the pretrain split.

    When the split carries native 0-labels they are used as-is; otherwise
    `neg_ratio` negatives per positive are sampled per user.
    """
    pre = dataset.rows(dataset.split == SPLITS.index(PRETRAIN))
    if not len(pre):
        raise FederationError("pretrain split is empty")
    if not pre.label.all():
        user, item, label = pre.user, pre.item, pre.label
    else:
        universe = np.array(sorted(dataset.items), dtype=np.int64)
        order = np.argsort(pre.user, kind="stable")
        uids, bounds = runs(pre.user[order])
        parts = [
            sample_negatives([pre.item[order[a:b]]], universe, neg_ratio, np.random.default_rng([seed, uid, 3]))[0]
            for uid, a, b in zip(uids.tolist(), bounds[:-1], bounds[1:])
        ]
        user = np.repeat(uids, [len(items) for items, _ in parts])
        item = np.concatenate([items for items, _ in parts])
        label = np.concatenate([labels for _, labels in parts])
    return dataset.user_attrs(user), dataset.item_attrs(item), label.astype(float)


def build_clients(dataset: Dataset, arch: Arch, seed: int, neg_ratio: int = 4) -> ClientArrays:
    """The run's clients, one row per federated user in uid order: padded
    train, val and test shards, the user's values of the grouping attributes,
    and a freshly initialized user adapter from the stream [seed, uid, 2].

    When the rows carry native 0-labels they are used as-is; otherwise each
    split's positives get `neg_ratio` negatives each, drawn from the items
    the user has in no split, in train, val, test order from the stream
    [seed, uid, 1]. Raises FederationError when no federated user is left."""
    codes = [SPLITS.index(tag) for tag in (FED_TRAIN, FED_VAL, FED_TEST)]
    fed = dataset.rows(dataset.split >= codes[0])
    if not len(fed):
        raise FederationError(f"no federated user has at least {MIN_FED_INTERACTIONS} interactions")
    # each user's rows, grouped by split, each group in dataset order
    order = np.lexsort((narrow_key(fed.split), narrow_key(fed.user)))
    uids, bounds = runs(fed.user[order])
    item, label = fed.item[order], fed.label[order]
    # where each user's train, val and test rows start and end in `order`
    rank = np.repeat(np.arange(len(uids)), np.diff(bounds)) * len(SPLITS) + fed.split[order]
    cuts = np.searchsorted(rank, np.arange(len(uids))[:, None] * len(SPLITS) + [*codes, len(SPLITS)])
    sampled = bool(fed.label.all())
    universe = np.array(sorted(dataset.items), dtype=np.int64)
    private = np.zeros((len(uids), sum(math.prod(shape) for shape, _ in user_adapter_specs(arch).values())))
    cols = []  # per user, its train, val and test (item, label) columns
    for j, uid in enumerate(uids.tolist()):
        private[j] = init_user_adapter(arch, np.random.default_rng([seed, uid, 2]))
        cols.append([(item[a:b], label[a:b]) for a, b in zip(cuts[j, :-1], cuts[j, 1:])])
        if sampled:
            cols[j] = sample_negatives([items for items, _ in cols[j]], universe, neg_ratio,
                                       np.random.default_rng([seed, uid, 1]))
    users = dataset.user_attrs(uids)
    shards = {}
    for s, key in enumerate(("train", "val", "test")):
        items, labels = [c[s][0] for c in cols], [c[s][1] for c in cols]
        counts = np.array([len(x) for x in items], dtype=np.int64)
        # a mask assignment fills row-major: client i's rows land in its first counts[i] slots
        valid = np.arange(counts.max(initial=0)) < counts[:, None]
        VA, y = np.zeros(valid.shape + (len(arch.item_schema),), dtype=np.int64), np.zeros(valid.shape)
        VA[valid] = dataset.item_attrs(np.concatenate([np.zeros(0, np.int64), *items]))
        y[valid] = np.concatenate([np.zeros(0), *labels])
        shards[key] = StackedShards(np.repeat(users[:, None, :], valid.shape[1], axis=1), VA, y, counts)
    groups = users[:, [arch.user_schema.index(a) for a in arch.group_attrs]]
    return ClientArrays(uids, groups, private, shards)


# ---------------------------------------------------------------------------
# Pretraining and warm start
# ---------------------------------------------------------------------------


def pretrain(
    dataset: Dataset,
    arch: Arch,
    epochs: int,
    lr: float,
    batch_size: int,
    seed: int,
    neg_ratio: int = 4,
) -> Tuple[ParamSet, List[float]]:
    """Centralized minibatch SGD on the plain base model over the pretrain
    split, as a cohort of one. Returns (trained base ParamSet, per-epoch
    mean loss)."""
    UA, VA, y = pretrain_examples(dataset, seed, neg_ratio)
    rng = np.random.default_rng([seed, 11])
    return train_plain(init_params(arch.base(), seed), UA, VA, y, batch_size, lr, rng, epochs)


def warm_start(arch: Arch, base_ps: ParamSet, seed: int) -> ParamSet:
    """Initialize a full (adapter + gate) model, overlaying the base tensors
    from a pretrained or distilled model. Raises ShapeError naming a base
    tensor the arch lacks or shapes differently."""
    try:
        return init_params(arch, seed).with_tensors(base_ps.tensors)
    except ShapeError as exc:
        raise ShapeError(f"warm start: {exc}") from None


# ---------------------------------------------------------------------------
# Federated round machinery
# ---------------------------------------------------------------------------


def select_clients(n: int, fraction: float, round_index: int, seed: int) -> np.ndarray:
    """Rows, among n clients, of the round's participants, ascending: seeded
    sampling without replacement, deterministic given (seed, round)."""
    if not 0.0 < fraction <= 1.0:
        raise FederationError(f"client fraction {fraction} outside (0, 1]")
    rng = np.random.default_rng([seed, round_index, 5])
    return np.sort(rng.choice(n, size=math.ceil(fraction * n), replace=False))


def _cohort(global_ps: ParamSet, arrays: ClientArrays, idx: np.ndarray) -> ParamSet:
    """The clients at rows idx of `arrays` as one cohort (`model.cohort_of`)."""
    try:
        return cohort_of(global_ps, arrays.groups[idx], arrays.private[idx])
    except ShapeError as exc:
        raise FederationError(str(exc)) from None


def _first_non_finite(rows: np.ndarray, uids: np.ndarray):
    """uids[c] of the first row c with a non-finite value, or None."""
    finite = np.isfinite(rows).all(axis=1)
    return None if finite.all() else int(uids[np.argmin(finite)])


def local_train(
    arrays: ClientArrays,
    idx: np.ndarray,
    global_ps: ParamSet,
    cfg: ExperimentConfig,
    round_index: int,
    pool: List[np.random.Generator],
) -> UploadBatch:
    """`cfg.local_epochs` epochs of SGD (`cfg.fed_lr`, batches of
    `cfg.fed_batch`) for the clients at rows idx of `arrays`, trained as one
    stacked cohort; the results are those of training each client alone,
    bit for bit when every train shard has the same length. Ragged shards
    are not: a client's last partial batch runs as wide as the cohort's
    padding, which moved results by up to 3.9e-12 relative on a heavy-tailed
    world of 1,500 clients, and the tests hold a small ragged world only to
    within 1e-12.

    Each client starts from the global shared and frozen tensors and its own
    user adapter, trains the private and shared tensors on its train shard
    with its RNG stream [cfg.seed, round, uid, 1] (a Generator of `pool`, see
    `derive_generators`), keeps its user adapter, written back into
    `arrays`, and uploads its shared vector. A client with an empty train
    shard uploads nothing. Rows of the batch follow idx. Raises
    FederationError naming the first client whose user adapter is no longer
    finite."""
    live = idx[arrays.shards["train"].counts[idx] > 0]
    uids = arrays.uids[live]
    if not live.size:
        return UploadBatch(uids, arrays.groups[live], np.zeros((0, 0)))
    ps = _cohort(global_ps, arrays, live)
    UA, VA, y, counts = arrays.shards["train"].rows(live)
    rngs = derive_generators(cfg.seed, round_index, uids, 1, pool)
    ps, _ = sgd_epochs(ps, UA, VA, y, counts, cfg.fed_batch, cfg.fed_lr, rngs, cfg.local_epochs)

    private = ps.trained[:, user_columns(ps.layout, ps.arch)]
    bad = _first_non_finite(private, uids)
    if bad is not None:
        raise FederationError(
            f"round {round_index}: training diverged; first client with a non-finite private adapter: {bad}"
        )
    arrays.private[live] = private
    return UploadBatch(uids, arrays.groups[live], ps.flat[SHARED])


def aggregate_uploads(batch: UploadBatch, ps: ParamSet) -> ParamSet:
    """The server's ParamSet `ps` with the batch's uploads averaged into its
    shared tensors (`model.cohort_mean`). Raises FederationError on an empty
    batch, and where cohort_mean raises ShapeError."""
    if not len(batch.uids):
        raise FederationError("no usable uploads this round")
    try:
        return cohort_mean(ps, batch.groups, batch.shared)
    except ShapeError as exc:
        raise FederationError(str(exc)) from None


def evaluate_global(server_ps: ParamSet, arrays: ClientArrays, split: str) -> EvalSummary:
    """Per-client metrics on `split` shards, unweighted mean over clients with
    a defined metric, in client order. Raises UndefinedMetricError if no
    client yields a defined AUC, and FederationError naming the first client
    with a non-finite score. All clients are scored by one forward pass and
    one `score_rows` call on their stacked shards."""
    if split not in arrays.shards:
        raise ValueError(f"bad split {split!r}")
    shards = arrays.shards[split]
    scored = np.flatnonzero(shards.counts)
    aucs = precs = np.empty(0)
    if scored.size:
        UA, VA, y, counts = shards.rows(scored)
        probs, _ = forward_batch(_cohort(server_ps, arrays, scored), UA, VA)
        try:
            rows = score_rows(probs, y, counts)
        except NonFiniteScoreError as exc:
            raise FederationError(
                f"client {arrays.uids[scored[exc.row]]} has a non-finite score on split {split!r}"
            ) from None
        aucs = rows.auc[rows.auc_defined]
        precs = rows.precision[rows.precision_defined]
    if not aucs.size:
        raise UndefinedMetricError(f"AUC undefined for every client on split {split!r}")
    return EvalSummary(
        mean_auc=float(np.mean(aucs)),
        mean_precision=float(np.mean(precs)) if precs.size else None,
        n_clients=len(scored),
        n_auc_valid=len(aucs),
    )


def run_federated(ps: ParamSet, arrays: ClientArrays, cfg: ExperimentConfig) -> Tuple[ParamSet, List[RoundReport]]:
    """The round loop: select -> broadcast -> local train -> (noise) ->
    aggregate -> evaluate, training the clients' private rows in place.
    Returns the server's final ParamSet and each round's report.

    Runs `cfg.rounds` rounds of a `cfg.client_fraction` of the clients,
    evaluates on val every `cfg.eval_every` rounds and after the last, and
    under `cfg.ldp_enabled` noises the uploads at Laplace scale
    `cfg.ldp_intensity`. Deterministic given (inputs, cfg.seed) regardless
    of client execution order. Raises FederationError when local training
    leaves a private tensor non-finite or aggregation a shared one."""
    reports: List[RoundReport] = []
    pool: List[np.random.Generator] = []  # the rounds' per-client streams
    order = _draw_order(ps.layout.cohort) if cfg.ldp_enabled else None

    for r in range(cfg.rounds):
        t0 = time.perf_counter()
        idx = select_clients(len(arrays.uids), cfg.client_fraction, r, cfg.seed)
        batch = local_train(arrays, idx, ps, cfg, r, pool)
        live = len(batch.uids)
        if live and cfg.ldp_enabled:
            rngs = derive_generators(cfg.seed, r, batch.uids, 2, pool)
            batch = replace(batch, shared=noise_uploads(batch.shared, cfg.ldp_intensity, rngs, order))
        report = RoundReport(round=r, n_participants=live, uploaded_per_client=batch.n_scalars, seconds=0.0)
        if live:
            ps = aggregate_uploads(batch, ps)
            try:
                ps.check_finite()
            except ShapeError as exc:
                who = _first_non_finite(batch.shared, batch.uids)
                raise FederationError(
                    f"round {r}: training diverged after aggregation ({exc}); "
                    f"first client with a non-finite upload: {who}"
                ) from None
        else:
            log.warning("round %d: no usable uploads, skipping aggregation", r)
            report.skipped = True
        if (r + 1) % cfg.eval_every == 0 or r == cfg.rounds - 1:
            try:
                ev = evaluate_global(ps, arrays, "val")
                report.val_auc = ev.mean_auc
                report.val_precision = ev.mean_precision
            except UndefinedMetricError:
                pass
            except FederationError as exc:  # a score that overflowed
                raise FederationError(f"round {r}: training diverged; {exc}") from None
        report.seconds = time.perf_counter() - t0
        reports.append(report)
    return ps, reports


def _draw_order(cohort: Layout) -> np.ndarray:
    """The noise draw each column of a cohort's upload takes: the draws run
    through the shared tensors in sorted name order, as when each tensor
    was noised on its own; a client's own group's adapters go under group
    0's names, which sort as every group's do."""
    drawn = [np.arange(a, b) for _, (tag, a, b, _) in sorted(cohort.entries.items()) if tag == SHARED]
    # the columns in draw order, inverted: each column's draw
    return np.argsort(np.concatenate([np.zeros(0, dtype=np.intp), *drawn]))
