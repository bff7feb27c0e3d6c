"""Federated orchestration: parameter partition, centralized pretraining,
local training of a round's clients as one stacked cohort, selective
upload/aggregation and round loop.

Each user is one client. Under the `fedpa` policy the item embeddings and MLP
stay frozen at their warm-start values, the user-level adapter is private to
the client, and the user embeddings, group adapters and gate are shared and
aggregated by unweighted mean.
"""
from __future__ import annotations

import fnmatch
import json
import logging
import math
import time
from dataclasses import dataclass, field
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
from .privacy import NoiseConfig, noise_upload

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

    def user_matrix(self, n: int) -> np.ndarray:
        return np.tile(self.user_attrs, (n, 1))


@dataclass
class Upload:
    uid: int
    tensors: Dict[str, np.ndarray]
    n_examples: int
    groups: Dict[str, int]
    skipped: bool = False

    @property
    def n_scalars(self) -> int:
        return int(sum(t.size for t in self.tensors.values()))


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
) -> List[ClientState]:
    """Seeded sampling without replacement; deterministic given (seed, round)."""
    if not 0.0 < fraction <= 1.0:
        raise FederationError(f"client fraction {fraction} outside (0, 1]")
    n = len(clients)
    k = math.ceil(fraction * n)
    rng = np.random.default_rng([seed, round_index, 5])
    idx = sorted(rng.choice(n, size=k, replace=False))
    return [clients[i] for i in idx]


def _upload_names(ps: ParamSet, client: ClientState) -> List[str]:
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


def _cohort_name(name: str) -> str:
    """A tensor's name in a cohort ParamSet, where each group adapter pair is
    the client's own group's, under the group name OWN_GROUP."""
    if not name.startswith(GROUP_PREFIX):
        return name
    _, _, attr, _g, rest = name.split("/", 4)
    return f"{GROUP_PREFIX}{attr}/{OWN_GROUP}/{rest}"


def _cohort_params(global_ps: ParamSet, clients: Sequence[ClientState], stack_shared: bool) -> ParamSet:
    """The clients' models as one ParamSet. Stacked on a leading client axis:
    each client's private tensors, its own group's adapter pair and, with
    `stack_shared` (for training), a copy of every other non-frozen tensor.
    Every other tensor stays unstacked and broadcasts."""
    tensors: Dict[str, np.ndarray] = {}
    tags: Dict[str, str] = {}
    for name, t in global_ps.tensors.items():
        tag = global_ps.tags[name]
        own = _cohort_name(name)
        if own != name:
            if own in tags:
                if tags[own] != tag:
                    raise FederationError(f"group adapters {own!r} carry different partition tags")
                continue
            _, _, attr, _g, rest = name.split("/", 4)
            tensors[own] = np.stack(
                [global_ps.tensors[f"{GROUP_PREFIX}{attr}/{c.groups[attr]}/{rest}"] for c in clients]
            )
        elif name in clients[0].private:
            tensors[own] = np.stack([c.private[name] for c in clients])
        elif stack_shared and tag != FROZEN:
            tensors[own] = np.repeat(t[None], len(clients), axis=0)
        else:
            tensors[own] = t
        tags[own] = tag
    return ParamSet(global_ps.arch, tensors, tags)


def _cohort_groups(arch: Arch) -> Optional[Dict[str, str]]:
    return {attr: OWN_GROUP for attr in arch.group_attrs} or None


def _stack_shards(clients: Sequence[ClientState], split: str):
    """The clients' `split` shards padded to the longest and stacked: UA
    (C, N, |user attrs|), VA (C, N, |item attrs|), y (C, N), and each
    client's count of valid rows (C,). Padding rows hold value 0 and label 0."""
    counts = np.array([len(c.shards[split]) for c in clients])
    C, N = len(clients), int(counts.max())
    VA = np.zeros((C, N, clients[0].shards[split].items.shape[1]), dtype=np.int64)
    y = np.zeros((C, N))
    for i, c in enumerate(clients):
        shard = c.shards[split]
        VA[i, : len(shard)] = shard.items
        y[i, : len(shard)] = shard.labels
    UA = np.repeat(np.stack([c.user_attrs for c in clients])[:, None, :], N, axis=1)
    return UA, VA, y, counts


def local_train(
    clients: Sequence[ClientState],
    global_ps: ParamSet,
    cfg: FedConfig,
    round_index: int,
    seed: int,
) -> List[Upload]:
    """E local epochs of SGD for a round's participants, trained as one
    stacked cohort; the results are those of training each client alone.

    Each client starts from the global shared and frozen tensors and its own
    private ones, trains the private and shared tensors on its train shard
    with its RNG stream [seed, round, uid, 1], keeps its private tensors and
    uploads the shared tensors it trained. A client with an empty train shard
    gets a skipped upload. Uploads come back in `clients` order."""
    uploads = [Upload(c.uid, {}, 0, dict(c.groups), skipped=True) for c in clients]
    live = [i for i, c in enumerate(clients) if len(c.shards["train"])]
    if not live:
        return uploads
    cohort = [clients[i] for i in live]
    ps = _cohort_params(global_ps, cohort, stack_shared=True)
    UA, VA, y, counts = _stack_shards(cohort, "train")
    rngs = [np.random.default_rng([seed, round_index, c.uid, 1]) for c in cohort]
    groups = _cohort_groups(global_ps.arch)
    for _ in range(cfg.local_epochs):
        ps, _ = sgd_epoch(ps, UA, VA, y, groups, cfg.batch_size, cfg.lr, rngs, counts=counts)

    names: Dict[tuple, List[Tuple[str, str]]] = {}  # per group membership
    for j, (i, c) in enumerate(zip(live, cohort)):
        c.private = {k: ps.tensors[k][j] for k in c.private}
        key = tuple(sorted(c.groups.items()))
        if key not in names:
            names[key] = [(n, _cohort_name(n)) for n in _upload_names(global_ps, c)]
        tensors = {n: ps.tensors[own][j] for n, own in names[key]}
        uploads[i] = Upload(c.uid, tensors, int(counts[j]), dict(c.groups))
    return uploads


def aggregate(uploads: Sequence[Upload], server: ServerState) -> ServerState:
    """Unweighted element-wise mean of each shared tensor over the uploads
    containing it; group adapters therefore average over group members only.
    Frozen and private tensors are untouched."""
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
    scored = [c for c in clients if len(c.shards[split])]
    aucs = precs = np.empty(0)
    if scored:
        ps = _cohort_params(server_ps, scored, stack_shared=False)
        UA, VA, y, counts = _stack_shards(scored, split)
        probs, _ = forward_batch(ps, UA, VA, _cohort_groups(server_ps.arch))
        try:
            rows = score_rows(probs, y, counts)
        except NonFiniteScoreError as exc:
            raise FederationError(
                f"client {scored[exc.row].uid} has a non-finite score on split {split!r}"
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


def run_federated(
    server_ps: ParamSet,
    clients: List[ClientState],
    cfg: FedConfig,
    noise_cfg: Optional[NoiseConfig],
    seed: int,
) -> Tuple[ServerState, List[ClientState], List[RoundReport]]:
    """The round loop: select -> broadcast -> local train -> (noise) ->
    aggregate -> evaluate. Deterministic given (inputs, seed) regardless of
    client execution order. Raises FederationError when aggregation leaves a
    shared tensor non-finite."""
    server = ServerState(server_ps)
    frozen_names = [n for n, t in server_ps.tags.items() if t == FROZEN]
    frozen_ref = {n: server_ps.tensors[n] for n in frozen_names}

    for r in range(cfg.rounds):
        t0 = time.perf_counter()
        participants = select_clients(clients, cfg.client_fraction, r, seed)
        # a diverging round overflows; check_finite below stops it with an
        # error naming the round, so numpy's warnings would only come first
        with np.errstate(over="ignore", invalid="ignore"):
            uploads = local_train(participants, server.params, cfg, r, seed)
            if noise_cfg is not None and noise_cfg.enabled:
                uploads = [
                    noise_upload(u, noise_cfg, np.random.default_rng([seed, r, u.uid, 2]))
                    for u in uploads
                ]
            live = [u for u in uploads if not u.skipped]
            report = RoundReport(
                round=r,
                n_participants=len(live),
                uploaded_per_client=live[0].n_scalars if live else 0,
                seconds=0.0,
            )
            if live:
                server = aggregate(uploads, server)
                try:
                    server.params.check_finite()
                except ShapeError as exc:
                    who = next(
                        (u.uid for u in live if not all(np.isfinite(t).all() for t in u.tensors.values())),
                        None,
                    )
                    raise FederationError(
                        f"round {r}: training diverged after aggregation ({exc}); "
                        f"first client with a non-finite upload: {who}"
                    ) from None
            else:
                log.warning("round %d: no usable uploads, skipping aggregation", r)
                report.skipped = True
        if (r + 1) % cfg.eval_every == 0 or r == cfg.rounds - 1:
            try:
                ev = evaluate_global(server.params, clients, "val")
                report.val_auc = ev.mean_auc
                report.val_precision = ev.mean_precision
            except UndefinedMetricError:
                pass
            except FederationError as exc:  # a diverged private adapter
                raise FederationError(f"round {r}: training diverged; {exc}") from None
        report.seconds = time.perf_counter() - t0
        server.reports.append(report)

    for n in frozen_names:
        if not np.array_equal(server.params.tensors[n], frozen_ref[n]):
            raise FederationError(f"frozen tensor {n!r} changed during the run")
    return server, clients, server.reports
