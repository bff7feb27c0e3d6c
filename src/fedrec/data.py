"""Dataset ingestion, synthesis, splitting and negative sampling.

All functions are pure given their inputs and an explicit RNG/seed; nothing
touches global random state.
"""
from __future__ import annotations

import codecs
import csv
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .config import check_bounds, check_size, setting
from .streams import choice_rows

PRETRAIN, FED_TRAIN, FED_VAL, FED_TEST = "pretrain", "fed-train", "fed-val", "fed-test"
# A Dataset's split column holds indexes into SPLITS; 0 marks a row not yet
# assigned to a split.
SPLITS = (None, PRETRAIN, FED_TRAIN, FED_VAL, FED_TEST)
# A Dataset's per-row columns.
COLUMNS = ("user", "item", "ts", "label", "split")

INTERACTION_COLUMNS = ("user_id", "item_id", "timestamp", "label")

# A user needs at least this many interactions for the 6:2:2 split to leave a
# nonempty test shard; users below it are dropped.
MIN_FED_INTERACTIONS = 5

INT64 = np.iinfo(np.int64)  # the range of every integer field a file may hold

# write_dataset_csvs turns this many interaction rows into Python ints at a
# time: a whole column as objects took 185 MB at the 100,000-user bound
WRITE_SLICE_ROWS = 65536


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
            raise DataError(f"unknown attribute {name!r}; valid: {', '.join(self.names)}") from None

    def validate_values(self, values: Sequence[int], what: str = "record"):
        if len(values) != len(self.names):
            raise DataError(f"{what}: expected {len(self.names)} attribute values, got {len(values)}")
        for name, p, v in zip(self.names, self.cards, values):
            if not 0 <= v < p:
                raise DataError(f"{what}: attribute {name!r} value {v} outside [0, {p})")


@dataclass(frozen=True)
class Interaction:
    """One row of a Dataset, as `Dataset.interactions` builds it from the columns."""

    user: int
    item: int
    ts: int
    label: int
    split: Optional[str] = None


@dataclass
class Dataset:
    """Users' and items' attribute values, and the interactions as columns:
    entry j of `user`, `item`, `ts` and `label` (int64) is the j-th row in
    file or generation order, and `split[j]` indexes SPLITS (0: not yet
    assigned)."""

    user_schema: AttributeSchema
    item_schema: AttributeSchema
    users: Dict[int, Tuple[int, ...]]
    items: Dict[int, Tuple[int, ...]]
    user: np.ndarray
    item: np.ndarray
    ts: np.ndarray
    label: np.ndarray
    split: Optional[np.ndarray] = None  # None: every row unassigned

    def __post_init__(self):
        for name in COLUMNS[:4]:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if self.split is None:
            self.split = np.zeros(len(self.user), dtype=np.int8)
        if len({len(getattr(self, name)) for name in COLUMNS}) != 1:
            raise DataError("interaction columns differ in length")

    def __len__(self):
        return len(self.user)

    @property
    def interactions(self) -> List[Interaction]:
        """The rows as Interaction objects, built from the columns on each read."""
        cols = (getattr(self, name).tolist() for name in COLUMNS)
        return [Interaction(u, i, t, l, SPLITS[s]) for u, i, t, l, s in zip(*cols)]

    def rows(self, index: np.ndarray) -> "Dataset":
        """The dataset with only the rows `index` (a boolean mask or positions)."""
        return replace(self, **{name: getattr(self, name)[index] for name in COLUMNS})

    @cached_property
    def user_attrs(self) -> Callable[[np.ndarray], np.ndarray]:
        """uids -> (n, |user attrs|) attribute values of those users."""
        return _attribute_lookup(self.users, len(self.user_schema))

    @cached_property
    def item_attrs(self) -> Callable[[np.ndarray], np.ndarray]:
        """iids -> (n, |item attrs|) attribute values of those items."""
        return _attribute_lookup(self.items, len(self.item_schema))

    def validate(self, origin: Optional[Tuple[str, Sequence[int]]] = None) -> "Dataset":
        """Check attribute values and every row; the first bad row raises.
        `origin` is (path, line of each row) for rows read from a file, and
        makes the error name the line."""
        _check_records(self.user_schema, self.users, "user")
        _check_records(self.item_schema, self.items, "item")
        unknown_user = ~np.isin(self.user, np.fromiter(self.users, np.int64, len(self.users)))
        unknown_item = ~np.isin(self.item, np.fromiter(self.items, np.int64, len(self.items)))
        bad = unknown_user | unknown_item | (self.label != 0) & (self.label != 1)
        if bad.any():
            j = int(np.argmax(bad))
            where = f"{origin[0]}:{origin[1][j]}: " if origin else ""
            if unknown_user[j]:
                raise DataError(f"{where}interaction references unknown user id {self.user[j]}")
            if unknown_item[j]:
                raise DataError(f"{where}interaction references unknown item id {self.item[j]}")
            raise DataError(f"{where}interaction label {self.label[j]} not in {{0,1}}")
        return self


def _check_records(schema: AttributeSchema, records: Dict[int, Tuple[int, ...]], what: str):
    """Raise the first bad record's `validate_values` error, in dict order.
    One length check and one range comparison pick the records to recheck;
    the comparison flags every bad record and may flag a good one, such as a
    value past int64 under a cardinality past 2**63."""
    keys, values = list(records), list(records.values())
    wrong_length = np.flatnonzero(np.fromiter(map(len, values), np.int64, len(values)) != len(schema))
    n = int(wrong_length[0]) if len(wrong_length) else len(values)  # the records before it form a table
    table = np.array(values[:n])
    if table.dtype != np.int64:  # values past int64, or not integers: compare them exactly
        table = np.array(values[:n], dtype=object)
    table = table.reshape(n, len(schema))
    top = np.array([min(p - 1, INT64.max) for p in schema.cards], dtype=np.int64)
    bad = ~((table >= 0) & (table <= top)).all(axis=1)
    for j in np.flatnonzero(bad).tolist() + wrong_length[:1].tolist():
        schema.validate_values(values[j], f"{what} {keys[j]}")


def _attribute_lookup(records: Dict[int, Tuple[int, ...]], width: int) -> Callable[[np.ndarray], np.ndarray]:
    """The attribute rows of known ids, as a function of the ids: the table
    is built once, and each call is one lookup in the sorted ids."""
    keys = np.array(sorted(records), dtype=np.int64)
    table = np.array([records[k] for k in keys.tolist()], dtype=np.int64).reshape(len(keys), width)
    return lambda ids: table[np.searchsorted(keys, ids)]


def narrow_key(a: np.ndarray) -> np.ndarray:
    """A sort key that orders like `a`: `a` shifted to start at 0 and cast
    to uint16 when its range fits, where numpy's stable sort is a radix
    sort, else `a` itself. The range is taken in Python ints, so it cannot
    overflow."""
    if len(a) and int(a.max()) - int(a.min()) <= np.iinfo(np.uint16).max:
        return (a - a.min()).astype(np.uint16)
    return a


def runs(sorted_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct keys, bounds) of a sorted array: the entries of the k-th
    distinct key are sorted_keys[bounds[k]:bounds[k + 1]]."""
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    return sorted_keys[starts], np.append(starts, len(sorted_keys))


@dataclass(frozen=True)
class SynthConfig:
    # `fedrec synth` finished in 3.7 s at 303 MB peak RSS at 100,000 users
    # and 100,000 items (tools/bound_run.py, 2-vCPU Xeon)
    n_users: int = setting("synth.n_users", int, "[2, 100000]")
    n_items: int = setting("synth.n_items", int, "[1, 100000]")
    user_attrs: Tuple[int, ...] = setting("synth.user_attrs", (int,), "[1, inf)")
    item_attrs: Tuple[int, ...] = setting("synth.item_attrs", (int,), "[1, inf)")
    beta: float = setting("synth.beta", float, "[0, 1]", 1.0)
    interactions_per_user: int = setting("synth.interactions_per_user", int, "[1, inf)", 30)
    base: float = setting("synth.base", float, "(-inf, inf)", 0.0)
    # Spread of the per-user deviation from the group taste (scale of the
    # per-user multiplier on the group/category affinity).
    pref_spread: float = setting("synth.pref_spread", float, "[0, inf)", 0.8)

    def __post_init__(self):
        check_bounds(self)
        if self.user_attrs and self.item_attrs:
            check_size("the affinity table (first user attribute by first item attribute)",
                       (self.user_attrs[0], self.item_attrs[0]), (("synth.user_attrs",), ("synth.item_attrs",)))


def _not_utf8(path: str) -> DataError:
    """The DataError naming the line and the first byte of `path`, after a
    leading byte order mark, that is not UTF-8. It reads the file whole, so
    it is only called once streaming has met such a byte."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start] + b"x").splitlines())  # the lines csv counts
        return DataError(f"{path}:{line}: not UTF-8 (byte {raw[exc.start]:#04x})")
    return DataError(f"{path}: not UTF-8")  # the file changed since it was read


def _read_csv(path: str, first_col: str, headers: Tuple[Tuple[str, ...], ...] = ()):
    """(header, line numbers, rows) of an all-integer CSV file in UTF-8,
    after a leading byte order mark if there is one, skipping blank lines:
    each row's fields as ints in int64 range, as many as the header has. The
    header must begin with `first_col` and, when `headers` is given, be one
    of them. Every fault raises DataError naming the file, and the line
    when a row is at fault."""
    lines: List[int] = []
    rows: List[List[int]] = []
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            if header[:1] != [first_col]:
                raise DataError(f"{path}: first column must be {first_col!r}, got {header[:1]}")
            if headers and tuple(header) not in headers:
                raise DataError(f"{path}: bad header {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
                try:
                    values = [int(x) for x in row]
                except ValueError:
                    raise DataError(f"{path}:{reader.line_num}: non-integer field in {row!r}") from None
                if min(values) < INT64.min or max(values) > INT64.max:
                    raise DataError(f"{path}:{reader.line_num}: field outside the int64 range in {row!r}")
                rows.append(values)
                lines.append(reader.line_num)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return header, lines, rows


def _read_records(path: str, id_col: str) -> Tuple[AttributeSchema, Dict[int, Tuple[int, ...]]]:
    """Read an id + integer-attribute CSV; returns (schema, {id: values}),
    each attribute's cardinality one more than its largest value."""
    header, lines, rows = _read_csv(path, id_col)
    names = tuple(header[1:])
    records = {}
    for lineno, (rid, *values) in zip(lines, rows):
        if rid in records:
            raise DataError(f"{path}:{lineno}: duplicate id {rid}")
        if values and min(values) < 0:
            j = next(j for j, v in enumerate(values) if v < 0)
            raise DataError(f"{path}:{lineno}: attribute {names[j]!r} value {values[j]} is negative")
        records[rid] = tuple(values)
    cards = tuple(max((vals[j] for vals in records.values()), default=0) + 1 for j in range(len(names)))
    try:
        return AttributeSchema(names, cards), records
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_dataset(
    users_path: str,
    items_path: str,
    interactions_path: str,
) -> Dataset:
    """Load the three CSV files; each attribute's cardinality is one more
    than its largest value.

    The interactions file has the columns user_id,item_id,timestamp and an
    optional label; without the label column every row is a positive (1).
    """
    user_schema, users = _read_records(users_path, "user_id")
    item_schema, items = _read_records(items_path, "item_id")

    header, lines, rows = _read_csv(
        interactions_path, INTERACTION_COLUMNS[0], (INTERACTION_COLUMNS, INTERACTION_COLUMNS[:3])
    )
    cols = np.array(rows, dtype=np.int64).reshape(len(rows), len(header)).T.copy()
    # without a label column, every row is a positive
    label = cols[3] if len(header) == 4 else np.ones(len(rows), dtype=np.int64)
    ds = Dataset(user_schema, item_schema, users, items, *cols[:3], label)
    return ds.validate((interactions_path, lines))


def split_pretrain_federated(dataset: Dataset, pretrain_user_fraction: float, seed: int) -> Dataset:
    """Partition users disjointly into a pretrain pool and a federated pool.

    All interactions of a pretrain user are tagged ``pretrain``; federated
    users' interactions are left untagged for the chronological split.
    """
    if not 0.0 < pretrain_user_fraction < 1.0:
        raise DataError(f"pretrain_user_fraction {pretrain_user_fraction} outside (0, 1)")
    if len(dataset.users) < 2:
        raise DataError(
            f"the pretrain/federated user split needs at least two users; the dataset has {len(dataset.users)}"
        )
    uids = np.array(sorted(dataset.users), dtype=np.int64)
    order = np.random.default_rng(seed).permutation(len(uids))
    k = int(round(pretrain_user_fraction * len(uids)))
    k = min(max(k, 1), len(uids) - 1)
    pretrain = np.isin(dataset.user, uids[order[:k]])
    return replace(dataset, split=np.where(pretrain, SPLITS.index(PRETRAIN), 0).astype(np.int8))


def split_per_user_chronological(dataset: Dataset) -> Tuple[Dataset, List[int]]:
    """6:2:2 per-user split by timestamp (ties broken by item id ascending,
    then by row order).

    First ceil(0.6 n) interactions go to fed-train, the next ceil(0.2 n) to
    fed-val, the remainder to fed-test. Users with fewer than
    MIN_FED_INTERACTIONS interactions are dropped. Only unassigned rows are
    split; rows keep their order. Returns (split dataset, the dropped users'
    ids in ascending order).
    """
    free = np.flatnonzero(dataset.split == 0)
    keys = (dataset.item[free], dataset.ts[free], dataset.user[free])
    order = free[np.lexsort([narrow_key(k) for k in keys])]
    uids, bounds = runs(dataset.user[order])
    n = np.diff(bounds)
    n_train = np.ceil(0.6 * n).astype(np.int64)
    # cap val so the test shard is never empty (bites only at n = 6, 7)
    n_val = np.maximum(1, np.minimum(np.ceil(0.2 * n).astype(np.int64), n - n_train - 1))
    rank = np.arange(len(order)) - np.repeat(bounds[:-1], n)
    split = dataset.split.copy()
    # FED_TRAIN, FED_VAL and FED_TEST have consecutive codes
    past_train, past_val = rank >= np.repeat(n_train, n), rank >= np.repeat(n_train + n_val, n)
    split[order] = SPLITS.index(FED_TRAIN) + past_train + past_val
    dropped = n < MIN_FED_INTERACTIONS
    keep = np.ones(len(dataset), dtype=bool)
    keep[order[np.repeat(dropped, n)]] = False
    return replace(dataset, split=split).rows(keep), uids[dropped].tolist()


def sample_negatives(
    positives: Sequence[np.ndarray],
    item_universe: np.ndarray,
    ratio: int,
    rng: np.random.Generator,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Draw `ratio` negatives per positive from items the user never touched.

    `positives` holds one user's positive items, an array per split in
    order, and `item_universe` the sorted item ids. Returns each array's
    (item, label) columns: each positive, then its negatives, drawn without
    replacement from the items of no array, or with replacement when fewer
    than `ratio` are left.
    """
    if ratio < 0:
        raise DataError(f"negative ratio {ratio} < 0")
    pool = item_universe[~np.isin(item_universe, np.concatenate(positives))]
    if ratio == 0 or len(pool) == 0:
        return [(items, np.ones(len(items), dtype=np.int64)) for items in positives]
    out = []
    for items in positives:
        negs = [rng.choice(pool, size=ratio, replace=len(pool) < ratio) for _ in range(len(items))]
        cols = np.column_stack([items, np.reshape(negs, (len(items), ratio))])
        out.append((cols.ravel(), np.tile(np.r_[1, np.zeros(ratio, dtype=np.int64)], len(items))))
    return out


def draw_attributes(rng: np.random.Generator, cards: Sequence[int], n: int) -> np.ndarray:
    """(n, len(cards)) attribute values in one call, with the stream of one
    `rng.integers(0, card)` per attribute, record by record. Its inclusive
    bounds card - 1 are exact int64s; given a card of 2**63, exclusive
    bounds would become a uint64 array, which draws other values near
    2**63."""
    return rng.integers(0, [p - 1 for p in cards], size=(n, len(cards)), endpoint=True)


def synth_generate(config: SynthConfig, seed: int) -> Dataset:
    """Generate a desk-scale implicit-feedback dataset from a latent model.

    Each (group, item-category) pair carries a seeded affinity; user u clicks
    item v with probability sigmoid(base + beta * ((1 + rho_u) * affinity + tau_u))
    where rho_u (taste alignment) and tau_u (activity offset) are per-user
    draws. Group = first user attribute, category = first item attribute.
    Labels come out as native 0/1 exposure outcomes.

    The stream order is fixed: the users' attributes, user by user, then the
    items', then affinity, rho and tau, then per user its items and one
    uniform per drawn item. Each user draws min(interactions_per_user,
    n_items) distinct items; past n_items, it draws n_items with replacement.
    """
    for name in ("user_attrs", "item_attrs"):
        if not getattr(config, name):
            raise DataError(f"synth.{name} is empty; users and items need at least one attribute each")
    rng = np.random.default_rng(seed)

    user_schema = AttributeSchema(
        tuple(f"ua{j}" for j in range(len(config.user_attrs))), tuple(config.user_attrs)
    )
    item_schema = AttributeSchema(
        tuple(f"ia{j}" for j in range(len(config.item_attrs))), tuple(config.item_attrs)
    )
    user_attrs = draw_attributes(rng, user_schema.cards, config.n_users)
    item_attrs = draw_attributes(rng, item_schema.cards, config.n_items)

    n_groups, n_cats = user_schema.cards[0], item_schema.cards[0]
    affinity = rng.normal(0.0, 1.2, size=(n_groups, n_cats))
    rho = rng.normal(0.0, config.pref_spread, size=config.n_users)
    tau = rng.normal(0.0, 0.2, size=config.n_users)

    # per user, its item draw and then one uniform per drawn item: the
    # stream order of a draw-and-label loop over the users
    k = min(config.interactions_per_user, config.n_items)
    chosen, uniform = choice_rows(rng, config.n_users, config.n_items, k, config.interactions_per_user > config.n_items)
    g, c = user_attrs[:, :1], item_attrs[chosen, 0]
    # a term that overflows to +-inf gives the sigmoid's exact limit, 0 or 1;
    # at beta = 0 the preference term is 0 however large it grows
    with np.errstate(over="ignore"):
        pref = (1.0 + rho[:, None]) * affinity[g, c] + tau[:, None] if config.beta else 0.0
        label = uniform < 1.0 / (1.0 + np.exp(-(config.base + config.beta * pref)))
    user = np.repeat(np.arange(config.n_users), k)
    ts = np.tile(np.arange(k), config.n_users)
    users, items = (dict(enumerate(map(tuple, a.tolist()))) for a in (user_attrs, item_attrs))
    return Dataset(user_schema, item_schema, users, items, user, chosen.ravel(), ts, label.ravel()).validate()


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]):
    """Write a CSV file: the header row, then `rows`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_dataset_csvs(dataset: Dataset, users_path: str, items_path: str, interactions_path: str):
    """Write the three CSV files in the load_dataset format, the
    interactions WRITE_SLICE_ROWS rows at a time."""
    write_csv(users_path, ["user_id", *dataset.user_schema.names],
              ([u, *dataset.users[u]] for u in sorted(dataset.users)))
    write_csv(items_path, ["item_id", *dataset.item_schema.names],
              ([i, *dataset.items[i]] for i in sorted(dataset.items)))
    cols = [getattr(dataset, name) for name in COLUMNS[:4]]
    write_csv(interactions_path, INTERACTION_COLUMNS, (
        row
        for start in range(0, len(dataset), WRITE_SLICE_ROWS)
        for row in zip(*(c[start : start + WRITE_SLICE_ROWS].tolist() for c in cols))
    ))
