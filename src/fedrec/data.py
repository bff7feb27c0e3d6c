"""Dataset ingestion, synthesis, splitting, grouping and negative sampling.

All functions are pure given their inputs and an explicit RNG/seed; nothing
touches global random state.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

PRETRAIN, FED_TRAIN, FED_VAL, FED_TEST = "pretrain", "fed-train", "fed-val", "fed-test"

INTERACTION_COLUMNS = ("user_id", "item_id", "timestamp", "label")

# A user needs at least this many interactions for the 6:2:2 split to leave a
# nonempty test shard; users below it are dropped.
MIN_FED_INTERACTIONS = 5


class DataError(ValueError):
    """Malformed input file or violated dataset invariant."""


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered categorical attribute layout for one side (users or items)."""

    names: Tuple[str, ...]
    cards: Tuple[int, ...]  # category count per attribute

    def __post_init__(self):
        if len(self.names) != len(self.cards):
            raise DataError("schema names/cardinalities length mismatch")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate attribute names in schema")
        for name, p in zip(self.names, self.cards):
            if p < 1:
                raise DataError(f"attribute {name!r} has cardinality {p} < 1")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown attribute {name!r}") from None

    def validate_values(self, values: Sequence[int], what: str = "record"):
        if len(values) != len(self.names):
            raise DataError(f"{what}: expected {len(self.names)} attribute values, got {len(values)}")
        for name, p, v in zip(self.names, self.cards, values):
            if not 0 <= v < p:
                raise DataError(f"{what}: attribute {name!r} value {v} outside [0, {p})")


@dataclass
class Interaction:
    user: int
    item: int
    ts: int
    label: int
    split: Optional[str] = None


@dataclass
class Dataset:
    user_schema: AttributeSchema
    item_schema: AttributeSchema
    users: Dict[int, Tuple[int, ...]]
    items: Dict[int, Tuple[int, ...]]
    interactions: List[Interaction]

    def validate(self) -> "Dataset":
        for uid, vals in self.users.items():
            self.user_schema.validate_values(vals, f"user {uid}")
        for iid, vals in self.items.items():
            self.item_schema.validate_values(vals, f"item {iid}")
        for row in self.interactions:
            if row.user not in self.users:
                raise DataError(f"interaction references unknown user id {row.user}")
            if row.item not in self.items:
                raise DataError(f"interaction references unknown item id {row.item}")
            if row.label not in (0, 1):
                raise DataError(f"interaction label {row.label} not in {{0,1}}")
        return self


@dataclass
class GroupAssignment:
    """Per grouping-attribute map from user id to group index."""

    maps: Dict[str, Dict[int, int]]

    @property
    def total(self) -> int:
        return len(self.maps)

    def groups_of(self, uid: int) -> Dict[str, int]:
        return {attr: m[uid] for attr, m in self.maps.items()}


@dataclass
class SplitReport:
    dropped_users: int = 0
    dropped_user_ids: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int
    n_items: int
    user_attrs: Tuple[int, ...]
    item_attrs: Tuple[int, ...]
    beta: float = 1.0
    interactions_per_user: int = 30
    base: float = 0.0
    # Spread of the per-user deviation from the group taste (scale of the
    # per-user multiplier on the group/category affinity).
    pref_spread: float = 0.8


def _read_csv(path: str, id_col: str):
    """Read an id + integer-attribute CSV; returns (attr names, {id: values})."""
    records = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0] != id_col:
            raise DataError(f"{path}: first column must be {id_col!r}, got {header[:1]}")
        attr_names = tuple(header[1:])
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = [int(x) for x in row]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer field in {row!r}") from None
            if len(values) != len(attr_names) + 1:
                raise DataError(f"{path}:{lineno}: expected {len(attr_names) + 1} fields, got {len(values)}")
            rid = values[0]
            if rid in records:
                raise DataError(f"{path}:{lineno}: duplicate id {rid}")
            records[rid] = tuple(values[1:])
    return attr_names, records


def _infer_cards(attr_names, records) -> Tuple[int, ...]:
    cards = []
    for j, _ in enumerate(attr_names):
        hi = max((vals[j] for vals in records.values()), default=0)
        cards.append(hi + 1)
    return tuple(cards)


def load_dataset(
    users_path: str,
    items_path: str,
    interactions_path: str,
    user_schema: Optional[AttributeSchema] = None,
    item_schema: Optional[AttributeSchema] = None,
) -> Dataset:
    """Load the three CSV files; cardinalities are inferred when no schema is given.

    The interactions file has the columns user_id,item_id,timestamp and an
    optional label; without the label column every row is a positive (1).
    """
    u_names, users = _read_csv(users_path, "user_id")
    i_names, items = _read_csv(items_path, "item_id")
    if user_schema is None:
        user_schema = AttributeSchema(u_names, _infer_cards(u_names, users))
    if item_schema is None:
        item_schema = AttributeSchema(i_names, _infer_cards(i_names, items))

    interactions: List[Interaction] = []
    with open(interactions_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{interactions_path}: empty file") from None
        if tuple(header) not in (INTERACTION_COLUMNS, INTERACTION_COLUMNS[:3]):
            raise DataError(f"{interactions_path}: bad header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{interactions_path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                uid, iid, ts, *label = (int(x) for x in row)
            except ValueError:
                raise DataError(f"{interactions_path}:{lineno}: non-integer field in {row!r}") from None
            interactions.append(Interaction(uid, iid, ts, label[0] if label else 1))

    return Dataset(user_schema, item_schema, users, items, interactions).validate()


def split_pretrain_federated(dataset: Dataset, pretrain_user_fraction: float, seed: int) -> Dataset:
    """Partition users disjointly into a pretrain pool and a federated pool.

    All interactions of a pretrain user are tagged ``pretrain``; federated
    users' interactions are left untagged for the chronological split.
    """
    if not 0.0 < pretrain_user_fraction < 1.0:
        raise DataError(f"pretrain_user_fraction {pretrain_user_fraction} outside (0, 1)")
    uids = sorted(dataset.users)
    rng = np.random.default_rng(seed)
    order = [uids[i] for i in rng.permutation(len(uids))]
    k = int(round(pretrain_user_fraction * len(uids)))
    k = min(max(k, 1), len(uids) - 1)
    pretrain_set = set(order[:k])
    interactions = [
        replace(r, split=PRETRAIN if r.user in pretrain_set else None) for r in dataset.interactions
    ]
    return replace(dataset, interactions=interactions)


def split_per_user_chronological(dataset: Dataset) -> Tuple[Dataset, SplitReport]:
    """6:2:2 per-user split by timestamp (ties broken by item id ascending).

    First ceil(0.6 n) interactions go to fed-train, the next ceil(0.2 n) to
    fed-val, the remainder to fed-test. Users with fewer than
    MIN_FED_INTERACTIONS interactions are dropped and counted in the report.
    """
    by_user: Dict[int, List[Interaction]] = {}
    for r in dataset.interactions:
        if r.split is None:
            by_user.setdefault(r.user, []).append(r)

    report = SplitReport()
    tagged: Dict[int, str] = {}  # id(interaction) -> tag
    dropped: set = set()
    for uid, rows in by_user.items():
        if len(rows) < MIN_FED_INTERACTIONS:
            report.dropped_users += 1
            report.dropped_user_ids.append(uid)
            dropped.add(uid)
            continue
        rows = sorted(rows, key=lambda r: (r.ts, r.item))
        n = len(rows)
        n_train = math.ceil(0.6 * n)
        # cap val so the test shard is never empty (bites only at n = 6, 7)
        n_val = max(1, min(math.ceil(0.2 * n), n - n_train - 1))
        for i, r in enumerate(rows):
            tagged[id(r)] = FED_TRAIN if i < n_train else FED_VAL if i < n_train + n_val else FED_TEST

    interactions = []
    for r in dataset.interactions:
        if r.split is not None:
            interactions.append(r)
        elif r.user in dropped:
            continue
        else:
            interactions.append(replace(r, split=tagged[id(r)]))
    report.dropped_user_ids.sort()
    return replace(dataset, interactions=interactions), report


def assign_groups(dataset: Dataset, grouping_attribute_names: Sequence[str]) -> GroupAssignment:
    """Group users by attribute value: one map per grouping attribute."""
    maps: Dict[str, Dict[int, int]] = {}
    for name in grouping_attribute_names:
        j = dataset.user_schema.index(name)
        maps[name] = {uid: vals[j] for uid, vals in dataset.users.items()}
    return GroupAssignment(maps)


def sample_negatives(
    client_train_interactions: Sequence[Interaction],
    item_universe: Sequence[int],
    ratio: int,
    rng: np.random.Generator,
) -> Tuple[List[Tuple[int, int, int]], bool]:
    """Draw `ratio` negatives per positive from items the user never touched.

    Returns (samples, with_replacement_flag). Each positive draws its
    negatives without replacement; when the non-interacted pool is smaller
    than `ratio`, sampling falls back to with-replacement and the flag is set.
    """
    if ratio < 0:
        raise DataError(f"negative ratio {ratio} < 0")
    positives = [r for r in client_train_interactions if r.label == 1]
    interacted = {r.item for r in client_train_interactions}
    pool = np.array(sorted(set(item_universe) - interacted), dtype=np.int64)

    samples: List[Tuple[int, int, int]] = []
    with_replacement = False
    for r in positives:
        samples.append((r.user, r.item, 1))
        if ratio == 0:
            continue
        if len(pool) >= ratio:
            negs = rng.choice(pool, size=ratio, replace=False)
        elif len(pool) > 0:
            negs = rng.choice(pool, size=ratio, replace=True)
            with_replacement = True
        else:
            continue
        for iid in negs:
            samples.append((r.user, int(iid), 0))
    return samples, with_replacement


def synth_generate(config: SynthConfig, seed: int) -> Dataset:
    """Generate a desk-scale implicit-feedback dataset from a latent model.

    Each (group, item-category) pair carries a seeded affinity; user u clicks
    item v with probability sigmoid(base + beta * ((1 + rho_u) * affinity + tau_u))
    where rho_u (taste alignment) and tau_u (activity offset) are per-user
    draws. Group = first user attribute, category = first item attribute.
    Labels come out as native 0/1 exposure outcomes.
    """
    if config.n_users < 1 or config.n_items < 1:
        raise DataError("synth config needs at least one user and one item")
    if not 0.0 <= config.beta <= 1.0:
        raise DataError(f"beta {config.beta} outside [0, 1]")
    rng = np.random.default_rng(seed)

    user_schema = AttributeSchema(
        tuple(f"ua{j}" for j in range(len(config.user_attrs))), tuple(config.user_attrs)
    )
    item_schema = AttributeSchema(
        tuple(f"ia{j}" for j in range(len(config.item_attrs))), tuple(config.item_attrs)
    )
    users = {
        uid: tuple(int(rng.integers(0, p)) for p in user_schema.cards)
        for uid in range(config.n_users)
    }
    items = {
        iid: tuple(int(rng.integers(0, p)) for p in item_schema.cards)
        for iid in range(config.n_items)
    }

    n_groups, n_cats = user_schema.cards[0], item_schema.cards[0]
    affinity = rng.normal(0.0, 1.2, size=(n_groups, n_cats))
    rho = rng.normal(0.0, config.pref_spread, size=config.n_users)
    tau = rng.normal(0.0, 0.2, size=config.n_users)

    interactions: List[Interaction] = []
    item_ids = np.arange(config.n_items)
    for uid in range(config.n_users):
        g = users[uid][0]
        k = min(config.interactions_per_user, config.n_items)
        chosen = rng.choice(item_ids, size=k, replace=config.interactions_per_user > config.n_items)
        for ts, iid in enumerate(chosen):
            c = items[int(iid)][0]
            logit = config.base + config.beta * ((1.0 + rho[uid]) * affinity[g, c] + tau[uid])
            label = int(rng.random() < 1.0 / (1.0 + math.exp(-logit)))
            interactions.append(Interaction(uid, int(iid), ts, label))
    return Dataset(user_schema, item_schema, users, items, interactions).validate()


def write_dataset_csvs(dataset: Dataset, users_path: str, items_path: str, interactions_path: str):
    """Write the three CSV files in the load_dataset format."""
    with open(users_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", *dataset.user_schema.names])
        for uid in sorted(dataset.users):
            w.writerow([uid, *dataset.users[uid]])
    with open(items_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", *dataset.item_schema.names])
        for iid in sorted(dataset.items):
            w.writerow([iid, *dataset.items[iid]])
    with open(interactions_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(INTERACTION_COLUMNS)
        for r in dataset.interactions:
            w.writerow([r.user, r.item, r.ts, r.label])
