"""Federated orchestration: parameter partition, centralized pretraining,
local training of a round's clients as one stacked cohort, selective
upload/aggregation and round loop.

Each user is one client. Under the `fedpa` policy the item embeddings and MLP
stay frozen at their warm-start values, the user-level adapter is private to
the client, and the user embeddings, group adapters and gate are shared and
aggregated by unweighted mean.

A run holds every client's state as arrays with a leading client axis
(`ClientArrays`), and a round works on rows of them: it gathers its
participants by index, trains them as one cohort, writes their private
tensors back by index, and uploads one `UploadBatch` whose tensors carry the
same client axis.
"""
from __future__ import annotations

import fnmatch
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .data import (
    FED_TEST,
    FED_TRAIN,
    FED_VAL,
    PRETRAIN,
    Dataset,
    GroupAssignment,
    Interaction,
    sample_negatives,
)
from .metrics import NonFiniteScoreError, UndefinedMetricError, score_rows
from .model import (
    FROZEN,
    PRIVATE,
    SHARED,
    Arch,
    ParamSet,
    ShapeError,
    forward_batch,
    init_params,
    init_user_adapter,
    sgd_epoch,
)
from .privacy import NoiseConfig, noise_uploads
from .streams import derive_generators

log = logging.getLogger(__name__)

GROUP_PREFIX = "adapter/group/"
# group name under which a cohort ParamSet holds each client's own group adapters
OWN_GROUP = "own"


class FederationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Partition policies
# ---------------------------------------------------------------------------

_PRESET_RULES = {
    "fedpa": (
        ("item_emb/*", FROZEN),
        ("mlp/*", FROZEN),
        ("adapter/user/*", PRIVATE),
        ("user_emb/*", SHARED),
        ("adapter/group/*", SHARED),
        ("gate/*", SHARED),
    ),
    "full": (("*", SHARED),),
}


@dataclass(frozen=True)
class PartitionPolicy:
    """First tensor-name pattern that matches a tensor assigns its tag;
    every tensor must match exactly one rule."""

    name: str
    rules: Tuple[Tuple[str, str], ...]

    @classmethod
    def preset(cls, name: str) -> "PartitionPolicy":
        if name not in _PRESET_RULES:
            raise FederationError(f"unknown partition policy {name!r}")
        return cls(name, _PRESET_RULES[name])

    def tag_of(self, tensor_name: str) -> str:
        hits = [tag for pat, tag in self.rules if fnmatch.fnmatchcase(tensor_name, pat)]
        if len(hits) != 1:
            raise FederationError(
                f"tensor {tensor_name!r} matches {len(hits)} rules of policy {self.name!r}"
            )
        return hits[0]

    def apply(self, ps: ParamSet) -> ParamSet:
        tags = {n: self.tag_of(n) for n in ps.tensors}
        return ParamSet(ps.arch, dict(ps.tensors), tags)


# ---------------------------------------------------------------------------
# Client and server state
# ---------------------------------------------------------------------------


@dataclass
class Shard:
    items: np.ndarray   # (n, |item attrs|) int attribute values
    labels: np.ndarray  # (n,) float {0,1}

    def __len__(self):
        return len(self.labels)


@dataclass
class ClientState:
    uid: int
    user_attrs: np.ndarray            # (|user attrs|,)
    groups: Dict[str, int]
    shards: Dict[str, Shard]          # keys: "train", "val", "test"
    private: Dict[str, np.ndarray]    # user-level adapter tensors


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
    """Every client's state as arrays, row i holding client i of the list it
    was stacked from; a run stacks its clients once and updates the private
    rows in place."""

    uids: np.ndarray                  # (N,)
    groups: np.ndarray                # (N, |arch.group_attrs|) group of each grouping attribute
    private: Dict[str, np.ndarray]    # name -> (N, *shape)
    shards: Dict[str, StackedShards]  # split -> shards

    @classmethod
    def stack(cls, clients: Sequence[ClientState], arch: Arch, splits: Sequence[str]) -> "ClientArrays":
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
        private_names = clients[0].private if n else ()
        return cls(
            uids=np.array([c.uid for c in clients], dtype=np.int64),
            groups=np.array(groups, dtype=np.int64).reshape(n, len(arch.group_attrs)),
            private={name: np.stack([c.private[name] for c in clients]) for name in private_names},
            shards=shards,
        )

    def write_back(self, clients: Sequence[ClientState]):
        """Set each client's private tensors to its rows."""
        for i, c in enumerate(clients):
            c.private = {name: t[i] for name, t in self.private.items()}


@dataclass
class UploadBatch:
    """A round's uploads, row c of every array belonging to client uids[c].

    `tensors` maps each uploaded tensor, in upload order (sorted names), to
    a (C, *shape) array. Group adapters go under their cohort name, with
    group OWN_GROUP; row c holds the pair of the group in row c of `groups`,
    whose columns follow the arch's grouping attributes. Any other name,
    a group adapter under its real group's name included, holds that
    tensor in every row."""

    uids: np.ndarray                  # (C,)
    n_examples: np.ndarray            # (C,) train rows
    groups: np.ndarray                # (C, |arch.group_attrs|)
    tensors: Dict[str, np.ndarray]

    @property
    def n_scalars(self) -> int:
        """Scalars each client uploads."""
        return int(sum(math.prod(t.shape[1:]) for t in self.tensors.values()))


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
class ServerState:
    params: ParamSet
    reports: List[RoundReport] = field(default_factory=list)


@dataclass
class FedConfig:
    rounds: int = 20
    client_fraction: float = 1.0
    local_epochs: int = 2
    lr: float = 0.05
    batch_size: int = 32
    eval_every: int = 1  # evaluate on fed-val every k rounds (last round always)


@dataclass
class EvalSummary:
    mean_auc: float
    mean_precision: Optional[float]
    n_clients: int
    n_auc_valid: int
    n_precision_valid: int


# ---------------------------------------------------------------------------
# Example assembly
# ---------------------------------------------------------------------------


def _rows_to_arrays(dataset: Dataset, rows: Sequence[Tuple[int, int, int]]):
    """(user, item, label) triples -> UA, VA, y arrays."""
    UA = np.array([dataset.users[u] for u, _, _ in rows], dtype=np.int64).reshape(-1, len(dataset.user_schema))
    VA = np.array([dataset.items[i] for _, i, _ in rows], dtype=np.int64).reshape(-1, len(dataset.item_schema))
    y = np.array([l for _, _, l in rows], dtype=float)
    return UA, VA, y


def pretrain_examples(dataset: Dataset, seed: int, neg_ratio: int = 4):
    """Training triples for the pretrain split.

    When the split carries native 0-labels they are used as-is; otherwise
    `neg_ratio` negatives per positive are sampled per user.
    """
    rows = [r for r in dataset.interactions if r.split == PRETRAIN]
    if not rows:
        raise FederationError("pretrain split is empty")
    if any(r.label == 0 for r in rows):
        triples = [(r.user, r.item, r.label) for r in rows]
    else:
        triples = []
        item_universe = sorted(dataset.items)
        by_user: Dict[int, List[Interaction]] = {}
        for r in rows:
            by_user.setdefault(r.user, []).append(r)
        for uid in sorted(by_user):
            rng = np.random.default_rng([seed, uid, 3])
            samples = sample_negatives(by_user[uid], item_universe, neg_ratio, rng)
            triples.extend(samples)
    return _rows_to_arrays(dataset, triples)


def _client_shard(dataset: Dataset, rows: List[Interaction], native_negs: bool,
                  item_universe, neg_ratio: int, rng) -> Shard:
    if native_negs:
        triples = [(r.user, r.item, r.label) for r in rows]
    else:
        triples = sample_negatives(rows, item_universe, neg_ratio, rng)
    _, VA, y = _rows_to_arrays(dataset, triples)
    return Shard(VA, y)


def build_clients(
    dataset: Dataset,
    assignment: GroupAssignment,
    arch: Arch,
    seed: int,
    neg_ratio: int = 4,
) -> List[ClientState]:
    """One ClientState per federated user, with per-split shards and freshly
    initialized private adapter tensors."""
    by_user: Dict[int, Dict[str, List[Interaction]]] = {}
    for r in dataset.interactions:
        if r.split in (FED_TRAIN, FED_VAL, FED_TEST):
            by_user.setdefault(r.user, {FED_TRAIN: [], FED_VAL: [], FED_TEST: []})[r.split].append(r)

    native_negs = any(
        r.label == 0 for r in dataset.interactions if r.split in (FED_TRAIN, FED_VAL, FED_TEST)
    )
    item_universe = sorted(dataset.items)

    clients = []
    for uid in sorted(by_user):
        rng = np.random.default_rng([seed, uid, 1])
        shards = {
            split_key: _client_shard(dataset, by_user[uid][tag], native_negs, item_universe, neg_ratio, rng)
            for split_key, tag in (("train", FED_TRAIN), ("val", FED_VAL), ("test", FED_TEST))
        }
        clients.append(
            ClientState(
                uid=uid,
                user_attrs=np.array(dataset.users[uid], dtype=np.int64),
                groups=assignment.groups_of(uid) if assignment.maps else {},
                shards=shards,
                private=init_user_adapter(arch, np.random.default_rng([seed, uid, 2])),
            )
        )
    return clients


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
    split. Returns (trained base ParamSet, per-epoch mean loss)."""
    base = arch.base()
    UA, VA, y = pretrain_examples(dataset, seed, neg_ratio)
    ps = init_params(base, seed)
    losses: List[float] = []
    rng = np.random.default_rng([seed, 11])
    for _ in range(epochs):
        ps, loss = sgd_epoch(ps, UA, VA, y, None, batch_size, lr, rng, want_loss=True)
        losses.append(loss)
    return ps, losses


def warm_start(arch: Arch, base_ps: ParamSet, seed: int) -> ParamSet:
    """Initialize a full (adapter + gate) model, overlaying the base tensors
    from a pretrained or distilled model."""
    ps = init_params(arch, seed)
    updates = {}
    for name in base_ps.tensors:
        if name not in ps.tensors:
            raise ShapeError(f"warm-start source tensor {name!r} absent from target arch")
        if base_ps.tensors[name].shape != ps.tensors[name].shape:
            raise ShapeError(f"warm-start shape mismatch on {name!r}")
        updates[name] = base_ps.tensors[name].copy()
    return ps.with_tensors(updates)


# ---------------------------------------------------------------------------
# Federated round machinery
# ---------------------------------------------------------------------------


def select_clients(
    clients: Sequence[ClientState], fraction: float, round_index: int, seed: int
) -> np.ndarray:
    """Positions in `clients` of the round's participants, ascending: seeded
    sampling without replacement, deterministic given (seed, round)."""
    if not 0.0 < fraction <= 1.0:
        raise FederationError(f"client fraction {fraction} outside (0, 1]")
    n = len(clients)
    k = math.ceil(fraction * n)
    rng = np.random.default_rng([seed, round_index, 5])
    return np.sort(rng.choice(n, size=k, replace=False))


def _group_tables(ps: ParamSet) -> Dict[str, Tuple[int, np.ndarray, str]]:
    """Each group adapter tensor of `ps` stacked over its attribute's groups,
    (card, *shape), under its cohort name (group OWN_GROUP), with the column
    of its attribute in a group matrix and its partition tag."""
    arch = ps.arch
    tables = {}
    for col, (attr, card) in enumerate(arch.group_cards().items()):
        for l in arch.adapter_layer_ids:
            for part in ("A", "B"):
                names = [f"{GROUP_PREFIX}{attr}/{g}/{l}/{part}" for g in range(card)]
                own = f"{GROUP_PREFIX}{attr}/{OWN_GROUP}/{l}/{part}"
                tags = {ps.tags[n] for n in names}
                if len(tags) != 1:
                    raise FederationError(f"group adapters {own!r} carry different partition tags")
                tables[own] = (col, np.stack([ps.tensors[n] for n in names]), tags.pop())
    return tables


def _cohort_params(global_ps: ParamSet, arrays: ClientArrays, idx: np.ndarray, train: bool) -> ParamSet:
    """The models of the clients at rows idx of `arrays` as one ParamSet.
    Stacked on a leading client axis: each client's private tensors, its own
    group's adapter pair and, for training, a copy of every other non-frozen
    tensor. Every other tensor stays unstacked and broadcasts."""
    tensors: Dict[str, np.ndarray] = {}
    tags: Dict[str, str] = {}
    for name, t in global_ps.tensors.items():
        if name.startswith(GROUP_PREFIX):
            continue
        tag = global_ps.tags[name]
        if name in arrays.private:
            tensors[name] = arrays.private[name][idx]
        elif train and tag != FROZEN:
            tensors[name] = np.repeat(t[None], len(idx), axis=0)
        else:
            tensors[name] = t
        tags[name] = tag
    for own, (col, table, tag) in _group_tables(global_ps).items():
        tensors[own] = table.take(arrays.groups[idx, col], axis=0)
        tags[own] = tag
    return ParamSet(global_ps.arch, tensors, tags)


def _cohort_groups(arch: Arch) -> Optional[Dict[str, str]]:
    return {attr: OWN_GROUP for attr in arch.group_attrs} or None


def _first_non_finite(tensors: Dict[str, np.ndarray], uids: np.ndarray):
    """uids[c] of the first row c with a non-finite value in any of the
    (C, *shape) tensors, or None."""
    finite = np.ones(len(uids), dtype=bool)
    for t in tensors.values():
        finite &= np.isfinite(t.reshape(len(uids), -1)).all(axis=1)
    return None if finite.all() else int(uids[np.argmin(finite)])


def local_train(
    arrays: ClientArrays,
    idx: np.ndarray,
    global_ps: ParamSet,
    cfg: FedConfig,
    round_index: int,
    seed: int,
    pool: List[np.random.Generator],
) -> UploadBatch:
    """E local epochs of SGD for the clients at rows idx of `arrays`, trained
    as one stacked cohort; the results are those of training each client
    alone.

    Each client starts from the global shared and frozen tensors and its own
    private ones, trains the private and shared tensors on its train shard
    with its RNG stream [seed, round, uid, 1] (a Generator of `pool`, see
    `derive_generators`), keeps its private tensors, written back into
    `arrays`, and uploads the shared tensors it trained. A client with an
    empty train shard uploads nothing. Rows of the batch follow idx.
    Raises FederationError naming the first client whose private tensors
    are no longer finite."""
    live = idx[arrays.shards["train"].counts[idx] > 0]
    uids = arrays.uids[live]
    if not live.size:
        return UploadBatch(uids, np.zeros(0, dtype=np.int64), arrays.groups[live], {})
    ps = _cohort_params(global_ps, arrays, live, train=True)
    UA, VA, y, counts = arrays.shards["train"].rows(live)
    rngs = derive_generators(seed, round_index, uids, 1, pool)
    groups = _cohort_groups(global_ps.arch)
    for _ in range(cfg.local_epochs):
        ps, _ = sgd_epoch(ps, UA, VA, y, groups, cfg.batch_size, cfg.lr, rngs, counts=counts)

    private = {name: ps.tensors[name] for name in arrays.private}
    bad = _first_non_finite(private, uids)
    if bad is not None:
        raise FederationError(
            f"round {round_index}: training diverged; first client with a non-finite private adapter: {bad}"
        )
    for name, t in private.items():
        arrays.private[name][live] = t
    shared = sorted(n for n, tag in ps.tags.items() if tag == SHARED)
    return UploadBatch(uids, counts, arrays.groups[live], {n: ps.tensors[n] for n in shared})


def aggregate_uploads(batch: UploadBatch, server: ServerState) -> ServerState:
    """Unweighted element-wise mean of each uploaded tensor over the batch's
    rows in batch order; a group adapter under its cohort name over the rows
    of its group's members only. Tensors nobody uploaded are untouched.
    Raises FederationError on an empty batch, or naming a client whose
    upload holds a tensor the server does not tag shared."""
    if not len(batch.uids):
        raise FederationError("no usable uploads this round")
    members = {}  # grouping attribute -> (group, member rows) of each group with members
    for col, attr in enumerate(server.params.arch.group_attrs):
        groups = batch.groups[:, col]
        # np.bincount, not np.unique, which would import numpy.ma (~1.7 MB)
        members[attr] = [(g, groups == g) for g in np.flatnonzero(np.bincount(groups))]
    updates = {}
    for name, rows in batch.tensors.items():
        parts = name.split("/", 4)
        if name.startswith(GROUP_PREFIX) and parts[3] == OWN_GROUP:
            targets = [(f"{GROUP_PREFIX}{parts[2]}/{g}/{parts[4]}", mask) for g, mask in members[parts[2]]]
        else:
            targets = [(name, slice(None))]
        for real, mask in targets:
            if server.params.tags.get(real) != SHARED:
                raise FederationError(
                    f"upload from client {batch.uids[mask][0]} contains non-shared tensor {real!r}"
                )
            updates[real] = np.mean(rows[mask], axis=0)
    return ServerState(server.params.with_tensors(updates), server.reports)


def _evaluate(server_ps: ParamSet, arrays: ClientArrays, split: str) -> EvalSummary:
    """evaluate_global on clients already stacked, `split` among their shards."""
    shards = arrays.shards[split]
    scored = np.flatnonzero(shards.counts)
    aucs = precs = np.empty(0)
    if scored.size:
        ps = _cohort_params(server_ps, arrays, scored, train=False)
        UA, VA, y, counts = shards.rows(scored)
        probs, _ = forward_batch(ps, UA, VA, _cohort_groups(server_ps.arch))
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
        n_precision_valid=len(precs),
    )


def evaluate_global(
    server_ps: ParamSet, clients: Sequence[ClientState], split: str
) -> EvalSummary:
    """Per-client metrics on `split` shards, unweighted mean over clients with
    a defined metric, in client order. Raises UndefinedMetricError if no
    client yields a defined AUC, and FederationError naming the first client
    with a non-finite score. All clients are scored by one forward pass and
    one `score_rows` call on their stacked shards."""
    if split not in ("train", "val", "test"):
        raise ValueError(f"bad split {split!r}")
    return _evaluate(server_ps, ClientArrays.stack(clients, server_ps.arch, (split,)), split)


def run_federated(
    server_ps: ParamSet,
    clients: List[ClientState],
    cfg: FedConfig,
    noise_cfg: Optional[NoiseConfig],
    seed: int,
) -> Tuple[ServerState, List[ClientState], List[RoundReport]]:
    """The round loop: select -> broadcast -> local train -> (noise) ->
    aggregate -> evaluate. Deterministic given (inputs, seed) regardless of
    client execution order. Raises FederationError when local training
    leaves a private tensor non-finite or aggregation a shared one.

    The clients are stacked into one ClientArrays for the whole run; their
    `private` tensors are set from it once, when the run ends."""
    server = ServerState(server_ps)
    frozen_names = [n for n, t in server_ps.tags.items() if t == FROZEN]
    frozen_ref = {n: server_ps.tensors[n] for n in frozen_names}
    arrays = ClientArrays.stack(clients, server_ps.arch, ("train", "val"))
    pool: List[np.random.Generator] = []  # the rounds' per-client streams

    for r in range(cfg.rounds):
        t0 = time.perf_counter()
        idx = select_clients(clients, cfg.client_fraction, r, seed)
        # a diverging round overflows; the finiteness checks stop it with an
        # error naming the round, so numpy's warnings would only come first
        with np.errstate(over="ignore", invalid="ignore"):
            batch = local_train(arrays, idx, server.params, cfg, r, seed, pool)
            live = len(batch.uids)
            if live and noise_cfg is not None and noise_cfg.enabled:
                rngs = derive_generators(seed, r, batch.uids, 2, pool)
                batch = replace(batch, tensors=noise_uploads(batch.tensors, noise_cfg, rngs))
            report = RoundReport(
                round=r, n_participants=live, uploaded_per_client=batch.n_scalars, seconds=0.0
            )
            if live:
                server = aggregate_uploads(batch, server)
                try:
                    server.params.check_finite()
                except ShapeError as exc:
                    who = _first_non_finite(batch.tensors, batch.uids)
                    raise FederationError(
                        f"round {r}: training diverged after aggregation ({exc}); "
                        f"first client with a non-finite upload: {who}"
                    ) from None
            else:
                log.warning("round %d: no usable uploads, skipping aggregation", r)
                report.skipped = True
        if (r + 1) % cfg.eval_every == 0 or r == cfg.rounds - 1:
            try:
                ev = _evaluate(server.params, arrays, "val")
                report.val_auc = ev.mean_auc
                report.val_precision = ev.mean_precision
            except UndefinedMetricError:
                pass
            except FederationError as exc:  # a score that overflowed
                raise FederationError(f"round {r}: training diverged; {exc}") from None
        report.seconds = time.perf_counter() - t0
        server.reports.append(report)

    arrays.write_back(clients)
    for n in frozen_names:
        if not np.array_equal(server.params.tensors[n], frozen_ref[n]):
            raise FederationError(f"frozen tensor {n!r} changed during the run")
    return server, clients, server.reports
