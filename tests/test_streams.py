"""Derived per-client streams against numpy's default_rng."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.streams import derive_generators

# entropy values of one to three 32-bit words
VALUES = st.integers(0, 2**64 - 1) | st.integers(0, 2**96 - 1)
UIDS = st.lists(st.integers(0, 2**31 - 1) | st.integers(2**32, 2**64 - 1), max_size=12)


def assert_same_stream(got, seed, round_index, uid, key):
    want = np.random.default_rng([seed, round_index, uid, key])
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.permutation(36), want.permutation(36))
    assert got.uniform(-0.5, 0.5, 5).tobytes() == want.uniform(-0.5, 0.5, 5).tobytes()


class TestDerivedStreams:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), UIDS, VALUES)
    def test_equal_default_rng(self, seed, round_index, uids, key):
        gens = derive_generators(seed, round_index, np.array(uids, dtype=np.uint64), key, [])
        assert len(gens) == len(uids)
        for g, uid in zip(gens, uids):
            assert_same_stream(g, seed, round_index, uid, key)

    @settings(max_examples=30, deadline=None)
    @given(VALUES, st.lists(UIDS, min_size=1, max_size=4), st.sampled_from([1, 2]))
    def test_pool_reused_across_rounds(self, seed, rounds, key):
        # each round re-seeds the same Generators, whatever the last round drew
        pool = []
        for r, uids in enumerate(rounds):
            gens = derive_generators(seed, r, uids, key, pool)
            assert all(a is b for a, b in zip(gens, pool))
            for g, uid in zip(gens, uids):
                assert_same_stream(g, seed, r, uid, key)
        assert len(pool) == max(len(u) for u in rounds)

    def test_python_ints_beyond_int64(self):
        uids = [3, 2**63 + 5, 2**64 - 1]
        for g, uid in zip(derive_generators(7, 1, uids, 2, []), uids):
            assert_same_stream(g, 7, 1, uid, 2)

    @pytest.mark.parametrize("seed,round_index,uids,key", [
        (-1, 0, [1], 1), (0, -2, [1], 1), (0, 0, [4, -3], 1), (0, 0, np.array([-3]), 1), (0, 0, [1], -1),
    ])
    def test_negative_entropy_rejected(self, seed, round_index, uids, key):
        with pytest.raises(ValueError):
            np.random.default_rng([seed, round_index, int(np.min(uids)), key])
        with pytest.raises(ValueError, match="negative"):
            derive_generators(seed, round_index, uids, key, [])
