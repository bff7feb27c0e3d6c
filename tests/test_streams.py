"""Derived per-client streams against numpy's default_rng, and per-row
choices against numpy's per-row loop."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec import streams
from fedrec.streams import _draw_block, _tail_shuffled, choice_rows, derive_generators

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


def choice_loop(rng, rows, n, k, replace):
    """Oracle for choice_rows: numpy's own calls, row after row."""
    chosen, uniform = np.empty((rows, k), dtype=np.int64), np.empty((rows, k))
    for u in range(rows):
        chosen[u] = rng.choice(n, size=k, replace=replace)
        uniform[u] = rng.random(k)
    return chosen, uniform


class CountingGenerator(np.random.Generator):
    """A Generator that counts its `choice` calls."""

    calls = 0

    def choice(self, *args, **kwargs):
        self.calls += 1
        return super().choice(*args, **kwargs)


def assert_same_choices(rows, n, k, replace, seed, buffered, rng_type=np.random.default_rng):
    """choice_rows equals the loop bit for bit from the same start, the
    Generator's state and its next draws after them included."""
    want_rng, got_rng = rng_type(seed), rng_type(seed)
    if buffered:  # one 32-bit draw leaves the high half of its word buffered
        want_rng.integers(0, 7), got_rng.integers(0, 7)
        assert got_rng.bit_generator.state.get("has_uint32", 1) == 1
    want = choice_loop(want_rng, rows, n, k, replace)
    got = choice_rows(got_rng, rows, n, k, replace)
    assert got[0].dtype == np.int64 and got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)  # nested, arrays in MT19937's
    assert got_rng.integers(0, 1000, 3).tolist() == want_rng.integers(0, 1000, 3).tolist()
    assert got_rng.random() == want_rng.random()


class TestChoiceRows:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(1, 40), st.integers(1, 300), st.data(), st.booleans(), st.integers(0, 2**32),
        st.booleans(), st.sampled_from([None, 1, 200, 2000]),
    )
    def test_equals_the_per_row_loop(self, rows, n, data, replace, seed, buffered, block_draws):
        # without replacement k is at most n; with it, k may pass n
        k = data.draw(st.integers(1, 400 if replace else min(n, 170)), label="k")
        if block_draws is None:
            assert_same_choices(rows, n, k, replace, seed, buffered)
        else:  # blocks of a few rows, down to one, so rows meet block bounds
            with mock.patch.multiple(streams, _BLOCK_DRAWS=block_draws, _MIN_BLOCK_ROWS=1):
                assert_same_choices(rows, n, k, replace, seed, buffered)

    @pytest.mark.parametrize("n,k,replace", [
        (50, 50, False),  # k == n: Floyd's first bound is 0, which draws nothing
        (1, 1, False), (1, 4, True), (60, 59, False), (2, 1, False),
        (100, 60, False),  # central_wide's shape
        (30, 40, True),
    ])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_fixed_shapes(self, n, k, replace, buffered):
        assert_same_choices(150, n, k, replace, 7, buffered)

    def test_tail_shuffle_rule_is_numpy_s(self):
        # numpy 2.4 draws k of n > 10000 items from a shuffled arange(n)
        # table when k > n // 50, else by Floyd's algorithm, which the block
        # replicates: so the block equals numpy's draw exactly off the rule
        for n, k in ((10001, 200), (10000, 201), (10001, 201)):
            want_rng, got_rng = np.random.default_rng(3), np.random.default_rng(3)
            want = want_rng.choice(n, size=k, replace=False)
            got = np.empty((1, k), dtype=np.int64)
            assert _draw_block(got_rng.bit_generator, got, np.empty((1, k)), n, False) == 1
            assert (got[0].tolist() != want.tolist()) == _tail_shuffled(n, k)
        assert _tail_shuffled(10001, 201) and not _tail_shuffled(10001, 200) and not _tail_shuffled(10000, 201)
        assert_same_choices(3, 10001, 201, False, 3, True)  # the rule's rows are numpy's own

    def test_a_block_with_a_rejected_draw(self):
        # with bounds near 100,000, 2**32 mod (b + 1) averages about b / 2,
        # so about one bounded draw in 86,000 is rejected and drawn again;
        # 2,000 rows of 30 such draws meet about one
        rng = CountingGenerator(np.random.PCG64(0))
        choice_rows(rng, 2000, 99991, 30, False)
        assert 1 <= rng.calls <= 5  # the rejected rows, drawn by numpy
        assert_same_choices(2000, 99991, 30, False, 0, False, lambda seed: CountingGenerator(np.random.PCG64(seed)))

    def test_another_bit_generator_is_drawn_by_the_loop(self):
        assert_same_choices(20, 30, 10, False, 5, True, lambda seed: np.random.Generator(np.random.MT19937(seed)))

    def test_k_past_the_block_rows_is_drawn_by_the_loop(self):
        rng = CountingGenerator(np.random.PCG64(1))
        choice_rows(rng, 4, 1000, 400, False)
        assert rng.calls == 4
        assert_same_choices(4, 1000, 400, False, 1, True)

    def test_k_past_n_without_replacement_raises_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, size=4, replace=False)
        with pytest.raises(ValueError):
            choice_rows(np.random.default_rng(0), 2, 3, 4, False)
