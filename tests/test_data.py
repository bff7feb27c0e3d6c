import numpy as np
import pytest
from scipy.stats import chi2_contingency

from fedrec.data import (
    FED_TEST,
    FED_TRAIN,
    FED_VAL,
    PRETRAIN,
    AttributeSchema,
    DataError,
    Dataset,
    GroupAssignment,
    Interaction,
    SynthConfig,
    assign_groups,
    load_dataset,
    sample_negatives,
    split_per_user_chronological,
    split_pretrain_federated,
    synth_generate,
    write_dataset_csvs,
)
from fedrec.federation import build_clients
from fedrec.model import Arch


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
        (client,) = build_clients(ds, GroupAssignment({}), Arch(ds.user_schema, ds.item_schema), seed=0)
        labels = client.shards["train"].labels
        assert np.sum(labels == 1) == 4 and np.sum(labels == 0) == 16  # 4 sampled per positive

    def test_row_longer_than_header_rejected(self, tmp_path, csv_paths):
        users, items, _ = csv_paths
        inter = write(tmp_path / "bad.csv", "user_id,item_id,timestamp\n0,5,1\n0,5,2,0\n")
        with pytest.raises(DataError, match=":3: expected 3 fields"):
            load_dataset(users, items, inter)

    def test_attribute_value_over_cardinality(self, csv_paths):
        users, items, inter = csv_paths
        schema = AttributeSchema(("age",), (1,))
        with pytest.raises(DataError):
            load_dataset(users, items, inter, user_schema=schema)


def ten_user_dataset():
    schema_u = AttributeSchema(("g",), (2,))
    schema_i = AttributeSchema(("c",), (2,))
    users = {u: (u % 2,) for u in range(10)}
    items = {i: (i % 2,) for i in range(20)}
    inter = [Interaction(u, i % 20, ts=i, label=1) for u in range(10) for i in range(10)]
    return Dataset(schema_u, schema_i, users, items, inter).validate()


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
        return Dataset(su, si, users, items, inter).validate()

    def test_10_interactions_622(self):
        ds, rep = split_per_user_chronological(self.make(10))
        counts = {tag: sum(r.split == tag for r in ds.interactions)
                  for tag in (FED_TRAIN, FED_VAL, FED_TEST)}
        assert counts == {FED_TRAIN: 6, FED_VAL: 2, FED_TEST: 2}
        assert rep.dropped_users == 0

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
        ds, _ = split_per_user_chronological(Dataset(su, si, {0: (0,)}, items, inter).validate())
        test_items = [r.item for r in ds.interactions if r.split == FED_TEST]
        assert test_items == [3]

    def test_too_few_interactions_drops_user(self):
        ds, rep = split_per_user_chronological(self.make(4))
        assert rep.dropped_users == 1 and rep.dropped_user_ids == [0]
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


class TestAssignGroups:
    def test_partition_by_cardinality(self):
        ds = ten_user_dataset()
        ga = assign_groups(ds, ["g"])
        assert set(ga.maps["g"].values()) <= {0, 1}
        assert ga.total == 1

    def test_two_attributes_two_groups_each(self):
        su = AttributeSchema(("g", "h"), (2, 3))
        si = AttributeSchema(("c",), (2,))
        users = {0: (1, 2), 1: (0, 0)}
        ds = Dataset(su, si, users, {0: (0,)}, []).validate()
        ga = assign_groups(ds, ["g", "h"])
        assert ga.groups_of(0) == {"g": 1, "h": 2}
        assert len(ga.groups_of(0)) == 2

    def test_unknown_attribute(self):
        with pytest.raises(DataError):
            assign_groups(ten_user_dataset(), ["nope"])


class TestSampleNegatives:
    def positives(self):
        return [Interaction(0, 0, 0, 1), Interaction(0, 1, 1, 1)]

    def test_ratio_4(self):
        samples, flag = sample_negatives(self.positives(), range(20), 4, np.random.default_rng(0))
        assert len(samples) == 2 + 8
        assert sum(1 for _, _, l in samples if l == 1) == 2
        assert not flag
        interacted = {0, 1}
        assert all(i not in interacted for _, i, l in samples if l == 0)

    def test_ratio_0(self):
        samples, _ = sample_negatives(self.positives(), range(20), 0, np.random.default_rng(0))
        assert [l for _, _, l in samples] == [1, 1]

    def test_deterministic(self):
        a, _ = sample_negatives(self.positives(), range(20), 4, np.random.default_rng(3))
        b, _ = sample_negatives(self.positives(), range(20), 4, np.random.default_rng(3))
        assert a == b

    def test_insufficient_pool_flags_replacement(self):
        samples, flag = sample_negatives(self.positives(), range(4), 4, np.random.default_rng(0))
        assert flag
        assert len(samples) == 2 + 8


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

    def test_zero_users_rejected(self):
        with pytest.raises(DataError):
            synth_generate(SynthConfig(0, 10, (2,), (2,)), seed=0)


class TestCsvRoundTrip:
    def test_write_then_load(self, tmp_path):
        ds = synth_generate(SynthConfig(10, 10, (3, 2), (4,), beta=1.0, interactions_per_user=6), 1)
        paths = [str(tmp_path / f) for f in ("u.csv", "i.csv", "x.csv")]
        write_dataset_csvs(ds, *paths)
        back = load_dataset(*paths)
        assert back.users == ds.users and back.items == ds.items
        assert len(back.interactions) == len(ds.interactions)
