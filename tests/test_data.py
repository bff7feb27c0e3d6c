import codecs
import math
import os
import re
import tempfile
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from fedrec.config import ConfigError
from fedrec.data import (
    FED_TEST,
    FED_TRAIN,
    FED_VAL,
    MIN_FED_INTERACTIONS,
    PRETRAIN,
    AttributeSchema,
    INT64,
    DataError,
    Dataset,
    Interaction,
    SynthConfig,
    draw_attributes,
    load_dataset,
    narrow_key,
    split_per_user_chronological,
    split_pretrain_federated,
    synth_generate,
    write_dataset_csvs,
)
from fedrec.federation import build_clients
from fedrec.model import Arch
from fedrec import data as data_module
from helpers import (
    attribute_draws_reference,
    attribute_rows_reference,
    client_objects,
    dataset_of,
    sample_negatives_of,
    sample_negatives_rows,
    split_per_user_chronological_rows,
    synth_generate_reference,
    validate_records_reference,
    write_dataset_csvs_one_shot,
)


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def csv_paths(tmp_path):
    users = write(tmp_path / "users.csv", "user_id,age\n0,1\n1,0\n")
    items = write(tmp_path / "items.csv", "item_id,cat\n5,2\n")
    inter = write(tmp_path / "interactions.csv",
                  "user_id,item_id,timestamp,label\n0,5,1,1\n1,5,2,0\n0,5,3,1\n")
    return users, items, inter


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            AttributeSchema(("a", "a"), (2, 2))

    def test_zero_cardinality_rejected(self):
        with pytest.raises(DataError):
            AttributeSchema(("a",), (0,))

    def test_unknown_attribute(self):
        s = AttributeSchema(("a",), (2,))
        with pytest.raises(DataError):
            s.index("b")


class TestLoadDataset:
    def test_small_fixture(self, csv_paths):
        ds = load_dataset(*csv_paths)
        assert len(ds.interactions) == 3
        assert len(ds.users) == 2 and len(ds.items) == 1
        assert ds.user_schema.names == ("age",)

    def test_empty_interactions(self, tmp_path, csv_paths):
        users, items, _ = csv_paths
        inter = write(tmp_path / "empty.csv", "user_id,item_id,timestamp,label\n")
        ds = load_dataset(users, items, inter)
        assert ds.interactions == []

    def test_unknown_item_id(self, tmp_path, csv_paths):
        users, items, _ = csv_paths
        inter = write(tmp_path / "bad.csv", "user_id,item_id,timestamp,label\n0,99,1,1\n")
        with pytest.raises(DataError, match="99"):
            load_dataset(users, items, inter)

    def test_unknown_user_id_reports_line(self, tmp_path, csv_paths):
        # blank lines are skipped but still counted
        users, items, _ = csv_paths
        inter = write(tmp_path / "bad.csv", "user_id,item_id,timestamp,label\n0,5,1,1\n\n7,5,2,1\n")
        with pytest.raises(DataError, match=r"bad\.csv:4: interaction references unknown user id 7$"):
            load_dataset(users, items, inter)

    def test_unknown_item_id_reports_line(self, tmp_path, csv_paths):
        users, items, _ = csv_paths
        inter = write(tmp_path / "bad.csv", "user_id,item_id,timestamp\n\n0,5,1\n\n\n1,6,2\n")
        with pytest.raises(DataError, match=r"bad\.csv:6: interaction references unknown item id 6$"):
            load_dataset(users, items, inter)

    def test_bad_label_reports_line(self, tmp_path, csv_paths):
        users, items, _ = csv_paths
        inter = write(tmp_path / "bad.csv", "user_id,item_id,timestamp,label\n0,5,1,1\n1,5,2,2\n")
        with pytest.raises(DataError, match=r"bad\.csv:3: interaction label 2 not in \{0,1\}$"):
            load_dataset(users, items, inter)

    def test_first_bad_row_is_reported(self, tmp_path, csv_paths):
        # a bad label on line 2 comes before an unknown user on line 3
        users, items, _ = csv_paths
        inter = write(tmp_path / "bad.csv", "user_id,item_id,timestamp,label\n0,5,1,3\n9,5,2,1\n")
        with pytest.raises(DataError, match=r"bad\.csv:2: interaction label 3"):
            load_dataset(users, items, inter)

    def test_malformed_row_reports_line(self, tmp_path, csv_paths):
        users, items, _ = csv_paths
        inter = write(tmp_path / "bad.csv", "user_id,item_id,timestamp,label\n0,5,1,1\n0,x,2,1\n")
        with pytest.raises(DataError, match=":3"):
            load_dataset(users, items, inter)

    def test_three_column_file_is_all_positives(self, tmp_path):
        users = write(tmp_path / "users.csv", "user_id,age\n0,1\n")
        items = write(tmp_path / "items.csv", "item_id,cat\n" + "".join(f"{i},{i % 2}\n" for i in range(10)))
        inter = write(tmp_path / "inter.csv",
                      "user_id,item_id,timestamp\n" + "".join(f"0,{i},{i}\n" for i in range(6)))
        ds = load_dataset(users, items, inter)
        assert [r.label for r in ds.interactions] == [1] * 6
        ds, _ = split_per_user_chronological(ds)
        arch = Arch(ds.user_schema, ds.item_schema)
        (client,) = client_objects(build_clients(ds, arch, seed=0), arch, ds)
        labels = client.shards["train"].labels
        assert np.sum(labels == 1) == 4 and np.sum(labels == 0) == 16  # 4 sampled per positive

    def test_row_longer_than_header_rejected(self, tmp_path, csv_paths):
        users, items, _ = csv_paths
        inter = write(tmp_path / "bad.csv", "user_id,item_id,timestamp\n0,5,1\n0,5,2,0\n")
        with pytest.raises(DataError, match=":3: expected 3 fields"):
            load_dataset(users, items, inter)

    @pytest.mark.parametrize("name, text", [
        ("users.csv", "user_id,age\n0,1\n-9223372036854775809,0\n"),
        ("items.csv", "item_id,cat\n5,2\n6,9223372036854775808\n"),
        ("interactions.csv", "user_id,item_id,timestamp,label\n0,5,1,1\n0,5,99999999999999999999999,1\n"),
    ])
    def test_field_outside_int64_names_file_and_line(self, tmp_path, csv_paths, name, text):
        paths = [write(tmp_path / name, text) if p.endswith(name) else p for p in csv_paths]
        with pytest.raises(DataError, match=rf"{name}:3: field outside the int64 range"):
            load_dataset(*paths)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, csv_paths):
        users, items, _ = csv_paths
        inter = tmp_path / "bad.csv"
        inter.write_bytes(b"user_id,item_id,timestamp,label\n0,5,1,1\r\n1,5,\xff2,0\n")
        with pytest.raises(DataError, match=r"bad\.csv:3: not UTF-8 \(byte 0xff\)$"):
            load_dataset(users, items, str(inter))

    def test_leading_utf8_bom_is_accepted(self, tmp_path, csv_paths):
        # as spreadsheet programs export CSV; a BOM anywhere else is data
        bommed = []
        for p in csv_paths:
            out = tmp_path / ("bom_" + os.path.basename(p))
            out.write_bytes(codecs.BOM_UTF8 + open(p, "rb").read())
            bommed.append(str(out))
        plain, with_bom = load_dataset(*csv_paths), load_dataset(*bommed)
        assert with_bom.user_schema == plain.user_schema and with_bom.users == plain.users
        assert with_bom.items == plain.items and np.array_equal(with_bom.ts, plain.ts)
        users = tmp_path / "users2.csv"
        users.write_bytes(codecs.BOM_UTF8 * 2 + b"user_id,age\n0,1\n")
        with pytest.raises(DataError, match="first column must be 'user_id'"):
            load_dataset(str(users), *bommed[1:])

    @pytest.mark.parametrize("name, text, message", [
        ("users.csv", "user_id,age\n0,1\n1,-1\n", r"users\.csv:3: attribute 'age' value -1 is negative$"),
        ("items.csv", "item_id,cat\n\n5,-2\n", r"items\.csv:3: attribute 'cat' value -2 is negative$"),
    ])
    def test_negative_attribute_names_file_and_line(self, tmp_path, csv_paths, name, text, message):
        paths = [write(tmp_path / name, text) if p.endswith(name) else p for p in csv_paths]
        with pytest.raises(DataError, match=message):
            load_dataset(*paths)

    def test_duplicate_attribute_names_name_the_file(self, tmp_path, csv_paths):
        _, items, inter = csv_paths
        users = write(tmp_path / "dup.csv", "user_id,age,age\n0,1,1\n1,0,0\n")
        with pytest.raises(DataError, match=r"dup\.csv: duplicate attribute names"):
            load_dataset(users, items, inter)

    def test_attribute_value_over_cardinality(self, csv_paths):
        users, items, inter = csv_paths
        # user 0's age is 1, outside a one-category schema
        ds = replace(load_dataset(users, items, inter), user_schema=AttributeSchema(("age",), (1,)))
        with pytest.raises(DataError, match=r"user 0: attribute 'age' value 1 outside \[0, 1\)"):
            ds.validate()


# three small valid files; the property damages one of them
VALID_FILES = {
    "users.csv": b"user_id,age,job\n0,1,2\n1,0,1\n2,2,0\n",
    "items.csv": b"item_id,cat\n5,2\n6,0\n",
    "interactions.csv": b"user_id,item_id,timestamp,label\n0,5,1,1\n1,6,2,0\n2,5,3,1\n1,5,4,1\n",
}
# pieces that reach each check: encodings, separators, quotes, signs and
# numbers at and past the int64 bounds
PIECES = st.sampled_from([
    b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\x00", b",", b"\n", b"\r", b"\r\n", b'"', b" ", b"-", b"-1", b"7",
    b"9223372036854775807", b"9223372036854775808", b"-9223372036854775809", b"1e3", b"x",
])


class TestLoadDatasetProperty:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(VALID_FILES)),
        data=st.data(),
    )
    def test_any_bytes_give_a_dataset_or_an_error_naming_file_and_line(self, name, data):
        # a whole file of arbitrary bytes, or a valid file with a span
        # replaced by arbitrary bytes or by PIECES; when the damage leaves
        # the header line whole, a row is at fault and the error names its line
        valid = VALID_FILES[name]
        if data.draw(st.booleans(), label="whole file"):
            blob = data.draw(st.binary(max_size=80), label="blob")
        else:
            at = data.draw(st.integers(0, len(valid)), label="at")
            cut = data.draw(st.integers(0, 6), label="cut")
            new = data.draw(st.one_of(st.binary(max_size=8), st.lists(PIECES, max_size=4).map(b"".join)), label="new")
            blob = valid[:at] + new + valid[at + cut :]
        header = valid[: valid.index(b"\n") + 1]
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, n) for n in ("users.csv", "items.csv", "interactions.csv")]
            for p in paths:
                with open(p, "wb") as fh:
                    fh.write(blob if p.endswith(name) else VALID_FILES[os.path.basename(p)])
            try:
                ds = load_dataset(*paths)
            except DataError as exc:
                message = str(exc)
                assert any(message.startswith(p + ":") for p in paths), message
                if blob.startswith(header):
                    assert re.match(r"^.+\.csv:\d+: ", message), message
                return
        assert isinstance(ds, Dataset) and len(ds) == len(ds.label)


def ten_user_dataset():
    schema_u = AttributeSchema(("g",), (2,))
    schema_i = AttributeSchema(("c",), (2,))
    users = {u: (u % 2,) for u in range(10)}
    items = {i: (i % 2,) for i in range(20)}
    inter = [Interaction(u, i % 20, ts=i, label=1) for u in range(10) for i in range(10)]
    return dataset_of(schema_u, schema_i, users, items, inter).validate()


class TestColumns:
    def test_row_view_is_built_from_the_columns(self):
        ds = split_pretrain_federated(ten_user_dataset(), 0.5, seed=7)
        assert "interactions" not in vars(ds)
        rows = ds.interactions
        assert [(r.user, r.item, r.ts, r.label) for r in rows] == \
            list(zip(ds.user.tolist(), ds.item.tolist(), ds.ts.tolist(), ds.label.tolist()))
        assert {r.split for r in rows} == {PRETRAIN, None}
        # a row of the view is no handle on the dataset
        with pytest.raises(FrozenInstanceError):
            rows[0].split = FED_TRAIN

    def test_columns_of_unequal_length_rejected(self):
        su, si = AttributeSchema(("g",), (1,)), AttributeSchema(("c",), (1,))
        with pytest.raises(DataError, match="length"):
            Dataset(su, si, {0: (0,)}, {0: (0,)}, [0, 0], [0], [0], [1])


class TestPretrainFederatedSplit:
    def test_half_split_counts(self):
        ds = split_pretrain_federated(ten_user_dataset(), 0.5, seed=7)
        pre_users = {r.user for r in ds.interactions if r.split == PRETRAIN}
        fed_users = {r.user for r in ds.interactions if r.split is None}
        assert len(pre_users) == 5 and len(fed_users) == 5
        assert pre_users.isdisjoint(fed_users)

    def test_deterministic(self):
        a = split_pretrain_federated(ten_user_dataset(), 0.5, seed=7)
        b = split_pretrain_federated(ten_user_dataset(), 0.5, seed=7)
        assert [r.split for r in a.interactions] == [r.split for r in b.interactions]

    def test_fraction_one_rejected(self):
        with pytest.raises(DataError):
            split_pretrain_federated(ten_user_dataset(), 1.0, seed=0)


class TestChronologicalSplit:
    def make(self, n_inter):
        su = AttributeSchema(("g",), (2,))
        si = AttributeSchema(("c",), (2,))
        users = {0: (0,)}
        items = {i: (i % 2,) for i in range(max(n_inter, 1))}
        inter = [Interaction(0, i, ts=i, label=1) for i in range(n_inter)]
        return dataset_of(su, si, users, items, inter).validate()

    def test_10_interactions_622(self):
        ds, dropped = split_per_user_chronological(self.make(10))
        counts = {tag: sum(r.split == tag for r in ds.interactions)
                  for tag in (FED_TRAIN, FED_VAL, FED_TEST)}
        assert counts == {FED_TRAIN: 6, FED_VAL: 2, FED_TEST: 2}
        assert dropped == []

    def test_5_interactions_311(self):
        # ceiling rule by hand: ceil(3)=3 train, ceil(1)=1 val, 1 test
        ds, _ = split_per_user_chronological(self.make(5))
        counts = [sum(r.split == tag for r in ds.interactions)
                  for tag in (FED_TRAIN, FED_VAL, FED_TEST)]
        assert counts == [3, 1, 1]

    def test_tie_broken_by_item_id(self):
        su = AttributeSchema(("g",), (2,))
        si = AttributeSchema(("c",), (2,))
        items = {i: (0,) for i in range(6)}
        # items 3 and 1 share the last timestamp; item 1 must sort first
        inter = [Interaction(0, i, ts=0, label=1) for i in (0, 2, 4, 5)]
        inter += [Interaction(0, 3, ts=9, label=1), Interaction(0, 1, ts=9, label=1)]
        ds, _ = split_per_user_chronological(dataset_of(su, si, {0: (0,)}, items, inter).validate())
        test_items = [r.item for r in ds.interactions if r.split == FED_TEST]
        assert test_items == [3]

    def test_too_few_interactions_drops_user(self):
        ds, dropped = split_per_user_chronological(self.make(4))
        assert dropped == [0]
        assert ds.interactions == []

    def test_chronological_order_invariant(self):
        ds, _ = split_per_user_chronological(self.make(10))
        train_ts = [r.ts for r in ds.interactions if r.split == FED_TRAIN]
        test_ts = [r.ts for r in ds.interactions if r.split == FED_TEST]
        assert max(train_ts) <= min(test_ts)

    def test_every_interaction_tagged_once(self):
        ds = split_pretrain_federated(ten_user_dataset(), 0.5, seed=1)
        ds, _ = split_per_user_chronological(ds)
        assert all(r.split in (PRETRAIN, FED_TRAIN, FED_VAL, FED_TEST) for r in ds.interactions)


# attribute cardinalities at and around the 32-bit and int64 bounds of numpy's bounded draws
CARDS = st.sampled_from([1, 2, 7, 2**32 - 1, 2**32, 2**33, 2**63 - 1, 2**63])
INT64_CARDS = CARDS.filter(lambda p: p < 2**63)  # a synth config's cardinalities are int64s

# one user's interactions: (item, timestamp, label), few values so ties are common
INTERACTIONS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 4), st.integers(0, 1)), max_size=14
)


class TestSplitProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        per_user=st.lists(INTERACTIONS, min_size=1, max_size=5),
        pretrain_users=st.sets(st.integers(0, 4)),
    )
    def test_conserves_rows_and_respects_chronology(self, per_user, pretrain_users):
        su, si = AttributeSchema(("g",), (1,)), AttributeSchema(("c",), (1,))
        inter = [
            Interaction(u, item, ts, label, PRETRAIN if u in pretrain_users else None)
            for u, rows in enumerate(per_user) for item, ts, label in rows
        ]
        users = {u: (0,) for u in range(len(per_user))}
        ds = dataset_of(su, si, users, {i: (0,) for i in range(6)}, inter).validate()
        out, dropped = split_per_user_chronological(ds)

        def key(r):
            return (r.user, r.item, r.ts, r.label)

        fed = {u for u in users if u not in pretrain_users}
        # a user without federated interactions has nothing to drop
        short = {u for u in fed if 0 < len(per_user[u]) < MIN_FED_INTERACTIONS}
        assert dropped == sorted(short)
        # every row kept exactly once, unless its federated user was dropped
        assert sorted(map(key, out.interactions)) == sorted(key(r) for r in inter if r.user not in short)
        assert all(r.split == PRETRAIN for r in out.interactions if r.user in pretrain_users)
        for u in fed - short:
            if not per_user[u]:
                continue
            n = len(per_user[u])
            order = {FED_TRAIN: 0, FED_VAL: 1, FED_TEST: 2}
            tagged = [(order[r.split], (r.ts, r.item)) for r in out.interactions if r.user == u]
            n_train = math.ceil(0.6 * n)
            n_val = max(1, min(math.ceil(0.2 * n), n - n_train - 1))
            assert [sum(t == k for t, _ in tagged) for k in range(3)] == [n_train, n_val, n - n_train - n_val]
            # chronological: (timestamp, item) never decreases from train to val to test
            for a, when_a in tagged:
                for b, when_b in tagged:
                    if a < b:
                        assert when_a <= when_b


@st.composite
def interleaved_rows(draw):
    """(user ids, item ids, rows): rows of up to 8 users, up to 12 each, in a
    drawn order, with every row of a drawn set of users already tagged
    pretrain. Four items and four timestamps, so (ts, item) ties, fully
    tied rows and short users are common. User ids, items and timestamps
    each sit at a drawn offset (past uint16, at Unix seconds or below zero)
    plus 0, 1, 2 or a span of 65,535 or 65,536: the widest range a uint16
    sort key holds, and one more."""
    span = draw(st.sampled_from([0xFFFF, 0x10000]))
    u0, i0 = draw(st.sampled_from([0, 65536, 2**40])), draw(st.sampled_from([0, 65536]))
    t0 = draw(st.sampled_from([0, 1_700_000_000, -(2**40), -5]))
    offset = st.sampled_from([0, 1, 2, span])
    per_user = draw(st.lists(st.lists(st.tuples(offset, offset, st.integers(0, 1)), max_size=12), max_size=8))
    uids = [u0 + d for d in (0, span, 1, 2, 3, 4, 5, 6)]
    pretrain_users = draw(st.sets(st.sampled_from(uids)))
    rows = [
        Interaction(u, i0 + item, t0 + ts, label, PRETRAIN if u in pretrain_users else None)
        for u, user_rows in zip(uids, per_user) for item, ts, label in user_rows
    ]
    return uids, [i0 + d for d in (0, 1, 2, span)], draw(st.permutations(rows))


class TestColumnarEqualsRowOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=interleaved_rows())
    def test_chronological_split(self, rows):
        uids, iids, rows = rows
        su, si = AttributeSchema(("g",), (1,)), AttributeSchema(("c",), (1,))
        ds = dataset_of(su, si, {u: (0,) for u in uids}, {i: (0,) for i in iids}, rows).validate()
        out, dropped = split_per_user_chronological(ds)
        want_rows, want_dropped = split_per_user_chronological_rows(rows)
        assert out.interactions == want_rows
        assert dropped == want_dropped

    @settings(max_examples=150, deadline=None)
    @given(
        splits=st.lists(st.lists(st.integers(0, 5), max_size=6), min_size=1, max_size=3),
        universe=st.integers(1, 9),
        ratio=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_sample_negatives(self, splits, universe, ratio, seed):
        # one user's positives in up to three splits; pools from 0 to 9
        # items, often smaller than the ratio
        rows = [[Interaction(3, item, ts, 1) for ts, item in enumerate(items)] for items in splits]
        got = sample_negatives_of(rows, range(universe), ratio, np.random.default_rng(seed))
        want = sample_negatives_rows(rows, range(universe), ratio, np.random.default_rng(seed))
        assert got == want


class TestNarrowKey:
    @pytest.mark.parametrize("lo", [0, -(2**40), 1_700_000_000, INT64.max - 0xFFFF])
    def test_a_range_up_to_65535_becomes_uint16_from_0(self, lo):
        a = lo + np.array([0xFFFF, 0, 7], dtype=np.int64)
        assert narrow_key(a).dtype == np.uint16 and narrow_key(a).tolist() == [0xFFFF, 0, 7]

    @pytest.mark.parametrize("a", [[0x10000, 0, 7], [INT64.max, INT64.min, 0], []], ids=["65536", "int64", "empty"])
    def test_a_wider_range_is_kept(self, a):
        # the int64 range is taken in Python ints, where it cannot overflow
        a = np.array(a, dtype=np.int64)
        assert narrow_key(a) is a


class TestArrayPassesEqualScalarOracles:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cards=st.lists(CARDS, min_size=1, max_size=4), n=st.integers(0, 12), seed=st.integers(0, 2**16))
    def test_one_attribute_draw_is_the_scalar_stream(self, cards, n, seed):
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw_attributes(rng, cards, n)
        assert list(map(tuple, got.tolist())) == attribute_draws_reference(want_rng, cards, n)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("cards", [(10**20,), (2, 10**20)])
    def test_a_cardinality_past_int64_raises_the_scalar_error(self, cards):
        with pytest.raises(ValueError) as want:
            attribute_draws_reference(np.random.default_rng(0), cards, 3)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            draw_attributes(np.random.default_rng(0), cards, 3)
        # a synth config refuses such a cardinality before anything is drawn
        with pytest.raises(ConfigError, match=f"^config key 'synth.user_attrs': {10**20} is outside the int64"):
            SynthConfig(4, 3, cards, (2,))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(2, 8),  # the least values that synth.* bounds allow
        n_items=st.integers(1, 8),
        per_user=st.integers(1, 12),  # past n_items, choice draws with replacement
        user_attrs=st.builds(lambda a, rest: (a, *rest), st.integers(1, 3), st.lists(INT64_CARDS, max_size=2)),
        item_attrs=st.builds(lambda a, rest: (a, *rest), st.integers(1, 3), st.lists(INT64_CARDS, max_size=2)),
        beta=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_synth_generate(self, n_users, n_items, per_user, user_attrs, item_attrs, beta, seed):
        cfg = SynthConfig(n_users, n_items, user_attrs, item_attrs, beta=beta, interactions_per_user=per_user)
        got, want = synth_generate(cfg, seed), synth_generate_reference(cfg, seed)
        assert got.users == want.users and got.items == want.items
        for name in ("user", "item", "ts", "label"):
            assert getattr(got, name).tolist() == getattr(want, name).tolist()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_attribute_lookup_is_the_per_call_table(self, data):
        def side(what):
            width = data.draw(st.integers(1, 3), label=f"{what} width")
            ids = data.draw(st.lists(st.integers(INT64.min, INT64.max), max_size=8, unique=True))
            records = {i: tuple(data.draw(st.lists(st.integers(0, 9), min_size=width, max_size=width))) for i in ids}
            asked = st.lists(st.sampled_from(ids), max_size=10) if ids else st.just([])
            return (AttributeSchema(tuple(f"{what}{j}" for j in range(width)), (10,) * width), records,
                    data.draw(asked, label=f"{what}s asked"))

        (su, users, uids), (si, items, iids) = side("u"), side("i")
        ds = Dataset(su, si, users, items, [], [], [], [])
        for _ in range(2):  # the second call reads the table the first built
            got = ds.user_attrs(np.array(uids, dtype=np.int64))
            want = attribute_rows_reference(users, len(su), np.array(uids, dtype=np.int64))
            assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()
            got = ds.item_attrs(np.array(iids, dtype=np.int64))
            want = attribute_rows_reference(items, len(si), np.array(iids, dtype=np.int64))
            assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()

    def test_attribute_tables_are_built_once(self, monkeypatch):
        built = []
        build = data_module._attribute_lookup

        def counted(records, width):
            built.append(width)
            return build(records, width)

        monkeypatch.setattr(data_module, "_attribute_lookup", counted)
        ds = ten_user_dataset()
        for _ in range(3):
            assert ds.user_attrs(np.array([3, 0])).tolist() == [list(ds.users[3]), list(ds.users[0])]
            assert ds.item_attrs(np.array([0])).tolist() == [list(ds.items[0])]
        assert built == [len(ds.user_schema), len(ds.item_schema)]
        # a dataset cut to some rows keeps the records, and builds its own tables
        ds.rows(np.arange(2)).user_attrs(np.array([1]))
        assert built == [len(ds.user_schema), len(ds.item_schema), len(ds.user_schema)]

    @pytest.mark.parametrize("card, records, bad", [
        (2**63, {0: (5,), 1: (2**63,)}, 1),
        (2**63 - 1, {0: (2**63,), 1: (INT64.max,)}, 0),
        (2**63 - 1, {0: (5,), 1: (INT64.max,)}, 1),
        (2**64, {0: (2**63,), 1: (2**64 - 1,)}, None),
    ], ids=["past-int64", "past-int64-first", "int64-max", "card-past-2**63"])
    def test_validate_compares_values_at_and_past_int64_exactly(self, card, records, bad):
        # a value past int64 beside an int64 one would round both through float64
        schema = AttributeSchema(("u0",), (card,))
        ds = Dataset(schema, schema, records, {0: (0,)}, [], [], [], [])
        if bad is None:
            ds.validate()
        else:
            message = f"user {bad}: attribute 'u0' value {records[bad][0]} outside [0, {card})"
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                ds.validate()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_validate_raises_the_first_bad_record_error(self, data):
        def side(what):
            cards = tuple(data.draw(st.lists(CARDS, min_size=1, max_size=3), label=f"{what} cards"))
            ids = data.draw(st.lists(st.integers(-5, INT64.max), min_size=1, max_size=6, unique=True))
            records = {i: tuple(data.draw(st.integers(0, min(p - 1, INT64.max))) for p in cards) for i in ids}
            # fault a few records: a value outside its range or past int64, or a record of the wrong length
            for i in data.draw(st.lists(st.sampled_from(ids), max_size=2, unique=True), label=f"faulted {what}s"):
                vals = list(records[i])
                if data.draw(st.booleans(), label="wrong length"):
                    vals = vals[1:] if data.draw(st.booleans(), label="shorter") else vals + [0]
                else:
                    j = data.draw(st.integers(0, len(vals) - 1))
                    vals[j] = data.draw(st.sampled_from([-1, cards[j], INT64.max, 2**63, INT64.min]))
                records[i] = tuple(vals)
            return AttributeSchema(tuple(f"{what}{j}" for j in range(len(cards))), cards), records

        (su, users), (si, items) = side("u"), side("i")
        ds = Dataset(su, si, users, items, [], [], [], [])

        def error(check):
            try:
                check()
            except DataError as exc:
                return str(exc)
            return None

        assert error(ds.validate) == error(lambda: validate_records_reference(ds))


class TestSampleNegativesProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=INTERACTIONS,
        universe=st.integers(1, 9),
        ratio=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    def test_negatives_avoid_every_interacted_item(self, rows, universe, ratio, seed):
        train = [Interaction(0, item, ts, 1) for item, ts, _ in rows]
        [samples] = sample_negatives_of([train], range(universe), ratio, np.random.default_rng(seed))
        interacted = {r.item for r in train}
        negatives = [i for _, i, label in samples if label == 0]
        assert all(0 <= i < universe and i not in interacted for i in negatives)
        assert [i for _, i, label in samples if label == 1] == [r.item for r in train]
        pool = set(range(universe)) - interacted
        assert len(negatives) == (ratio * len(train) if pool else 0)


class TestAssignGroups:
    """A client's groups are its user's values of the grouping attributes."""

    def test_partition_by_cardinality(self):
        ds, _ = split_per_user_chronological(split_pretrain_federated(ten_user_dataset(), 0.5, seed=0))
        arrays = build_clients(ds, Arch(ds.user_schema, ds.item_schema, group_attrs=("g",)), seed=0)
        assert arrays.groups.shape == (len(arrays.uids), 1)
        assert arrays.groups[:, 0].tolist() == [ds.users[u][0] for u in arrays.uids.tolist()]
        assert set(arrays.groups[:, 0].tolist()) <= {0, 1}

    def test_two_attributes_two_groups_each(self):
        su = AttributeSchema(("g", "h"), (2, 3))
        si = AttributeSchema(("c",), (2,))
        users = {0: (1, 2), 1: (0, 0)}
        rows = [Interaction(u, 0, ts, 1, FED_TRAIN) for u in users for ts in range(2)]
        ds = dataset_of(su, si, users, {0: (0,)}, rows).validate()
        arrays = build_clients(ds, Arch(su, si, group_attrs=("h", "g")), seed=0)
        assert arrays.groups.tolist() == [[2, 1], [0, 0]]

    def test_unknown_attribute(self):
        ds = ten_user_dataset()
        with pytest.raises(DataError):
            Arch(ds.user_schema, ds.item_schema, group_attrs=("nope",))


class TestSampleNegatives:
    def positives(self):
        return [Interaction(0, 0, 0, 1), Interaction(0, 1, 1, 1)]

    @staticmethod
    def negatives_per_positive(samples):
        """Each positive's sampled negative items; a positive precedes its negatives."""
        groups = []
        for _, item, label in samples:
            if label == 1:
                groups.append([])
            else:
                groups[-1].append(item)
        return groups

    def test_ratio_4(self):
        samples = sample_negatives_of([self.positives()], range(20), 4, np.random.default_rng(0))[0]
        assert len(samples) == 2 + 8
        assert sum(1 for _, _, l in samples if l == 1) == 2
        # a large pool: each positive's negatives are drawn without replacement
        assert all(len(set(negs)) == 4 for negs in self.negatives_per_positive(samples))
        interacted = {0, 1}
        assert all(i not in interacted for _, i, l in samples if l == 0)

    def test_ratio_0(self):
        samples = sample_negatives_of([self.positives()], range(20), 0, np.random.default_rng(0))[0]
        assert [l for _, _, l in samples] == [1, 1]

    def test_deterministic(self):
        a = sample_negatives_of([self.positives()], range(20), 4, np.random.default_rng(3))[0]
        b = sample_negatives_of([self.positives()], range(20), 4, np.random.default_rng(3))[0]
        assert a == b

    def test_insufficient_pool_draws_with_replacement(self):
        # two non-interacted items for four negatives per positive
        samples = sample_negatives_of([self.positives()], range(4), 4, np.random.default_rng(0))[0]
        assert len(samples) == 2 + 8
        negs = self.negatives_per_positive(samples)
        assert all(set(n) <= {2, 3} for n in negs)
        assert any(len(set(n)) < len(n) for n in negs)


class TestSynthGenerate:
    def cfg(self, beta):
        return SynthConfig(n_users=200, n_items=100, user_attrs=(4,), item_attrs=(5,),
                           beta=beta, interactions_per_user=20)

    def test_deterministic(self):
        a = synth_generate(self.cfg(1.0), seed=5)
        b = synth_generate(self.cfg(1.0), seed=5)
        assert a.users == b.users and a.items == b.items
        assert [(r.user, r.item, r.ts, r.label) for r in a.interactions] == \
               [(r.user, r.item, r.ts, r.label) for r in b.interactions]

    def contingency(self, ds):
        # group x category counts of positive interactions, brute force
        table = np.zeros((4, 5))
        for r in ds.interactions:
            if r.label == 1:
                table[ds.users[r.user][0], ds.items[r.item][0]] += 1
        return table

    def test_beta_zero_independent(self):
        ds = synth_generate(self.cfg(0.0), seed=2)
        _, p, _, _ = chi2_contingency(self.contingency(ds) + 1)
        assert p > 0.01

    def test_beta_one_dependent(self):
        ds = synth_generate(self.cfg(1.0), seed=2)
        _, p, _, _ = chi2_contingency(self.contingency(ds) + 1)
        assert p < 1e-4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("base", [0.0, 1e308, -1e308])
    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_an_overflowing_preference_labels_at_the_limit_without_warnings(self, beta, base):
        # pref_spread 1e308 makes (1 + rho) * affinity overflow to +-inf,
        # whose sigmoid is the exact limit 0 or 1: the labels are those of
        # the formula as written, and numpy warns of nothing
        cfg = SynthConfig(40, 30, (3,), (4,), beta=beta, base=base, pref_spread=1e308)
        got = synth_generate(cfg, seed=4)
        with np.errstate(over="ignore"):
            want = synth_generate_reference(cfg, seed=4)
        assert got.label.tolist() == want.label.tolist() and 0 < got.label.sum() < len(got)

    @pytest.mark.filterwarnings("error")
    def test_beta_zero_labels_do_not_read_the_preference(self):
        # at beta = 0 every pair clicks with probability sigmoid(base),
        # however large the preference: 0 * inf would be NaN, labelled 0
        at = lambda spread: synth_generate(replace(self.cfg(0.0), base=0.3, pref_spread=spread), seed=6)
        assert at(1e308).label.tolist() == at(0.8).label.tolist()

    def test_zero_users_rejected(self):
        with pytest.raises(ConfigError, match=r"^config key 'synth.n_users': 0 is outside \[2, 100000\]$"):
            SynthConfig(0, 10, (2,), (2,))

    @pytest.mark.parametrize("user_attrs, item_attrs", [((), (2,)), ((2,), ())], ids=["users", "items"])
    def test_empty_attribute_list_rejected(self, user_attrs, item_attrs):
        # the generator's groups and categories are the first attribute of each side
        with pytest.raises(DataError, match="attrs is empty"):
            synth_generate(SynthConfig(10, 10, user_attrs, item_attrs), seed=0)


class TestCsvRoundTrip:
    @pytest.mark.parametrize("rows_per_slice", [1, 7, 60, 64])
    def test_sliced_write_is_the_one_shot_write_byte_for_byte(self, tmp_path, monkeypatch, rows_per_slice):
        ds = synth_generate(SynthConfig(10, 10, (3, 2), (4,), interactions_per_user=6), 1)  # 60 rows
        monkeypatch.setattr(data_module, "WRITE_SLICE_ROWS", rows_per_slice)
        got, want = ([tmp_path / f"{side}.{f}" for f in ("u.csv", "i.csv", "x.csv")] for side in ("got", "want"))
        write_dataset_csvs(ds, *got)
        write_dataset_csvs_one_shot(ds, *want)
        assert [p.read_bytes() for p in got] == [p.read_bytes() for p in want]

    def test_write_then_load(self, tmp_path):
        ds = synth_generate(SynthConfig(10, 10, (3, 2), (4,), beta=1.0, interactions_per_user=6), 1)
        paths = [str(tmp_path / f) for f in ("u.csv", "i.csv", "x.csv")]
        write_dataset_csvs(ds, *paths)
        back = load_dataset(*paths)
        assert back.users == ds.users and back.items == ds.items
        assert len(back.interactions) == len(ds.interactions)
