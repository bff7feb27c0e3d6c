"""numpy random streams replicated in arrays, bit for bit.

Per-client streams. A client's stream for round r and purpose `key` is
`np.random.default_rng([seed, r, uid, key])`. Building one such Generator
runs numpy's SeedSequence hash and PCG64 seeding in Python-level code, about
20 µs per client. `derive_generators` computes the same states for every
uid of a round at once: the SeedSequence hash runs on uint32 arrays with one
element per client, the PCG64 seeding on Python integers, and each state is
set on a Generator of a caller-owned pool, which later rounds reuse.

The arithmetic follows numpy's `SeedSequence` (pool size 4, entropy words
little-endian 32-bit, no spawn key) and `PCG64`'s seeding from four
generated 64-bit words; tests check it against `default_rng` bit for bit.

Per-row choices. `choice_rows` makes the draws of a loop of
`rng.choice(n, k)` and `rng.random(k)` calls, one pair per row, from one
block of a PCG64 stream's words at a time; tests check it against that loop
bit for bit, the Generator's state after it included.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# choice_rows: the draws of one block of rows, which bounds its temporaries,
# and the fewest rows a block must hold for its per-position steps to cost
# less than the per-row loop (k <= 170)
_BLOCK_DRAWS = 1 << 16
_MIN_BLOCK_ROWS = 128


def _words(value: int) -> List[int]:
    """A non-negative entropy value as SeedSequence's 32-bit words, low first."""
    value = int(value)
    if value < 0:
        raise ValueError(f"entropy value {value} is negative")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(init: int, mult: int, n: int):
    """(xor, multiplier) constants of n successive hashmix calls: SeedSequence
    updates its hash constant by a fixed multiplier on every call, so the
    sequence is the same for every row."""
    c = [init]
    for _ in range(n):
        c.append((c[-1] * mult) & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mult
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> _XSHIFT)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """The four 64-bit words `SeedSequence(row).generate_state(4, uint64)`
    of each row of 32-bit entropy words (C, L), as a (C, 4) uint64 array.

    The pool is a (4, C) array, one row per pool word. Each step of
    SeedSequence's word-by-word loops that reads one word and updates
    several others runs as one array operation over those words."""
    C, L = entropy.shape
    E = entropy.T
    n = _POOL_SIZE
    xor, mult = _hash_consts(_INIT_A, _MULT_A, n * n + n * max(L - n, 0))
    pool = np.zeros((n, C), dtype=np.uint32)
    pool[: min(L, n)] = E[:n]
    pool = _hashmix(pool, xor[:n], mult[:n])
    k = n
    for src in range(n):  # every word into every other, in SeedSequence's order
        dst = [d for d in range(n) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k : k + n - 1], mult[k : k + n - 1]))
        k += n - 1
    for src in range(n, L):  # entropy beyond the pool size into every word
        pool = _mix(pool, _hashmix(E[src], xor[k : k + n], mult[k : k + n]))
        k += n
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 2 * n)
    state = _hashmix(pool[np.arange(2 * n) % n], xor, mult).astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def derive_generators(
    seed: int, round_index: int, uids: Sequence[int], key: int, pool: List[np.random.Generator]
) -> List[np.random.Generator]:
    """Generators in the states of `np.random.default_rng([seed,
    round_index, uid, key])` for each uid, in uids order.

    Every entropy value must be a non-negative integer, and each uid below
    2**64; a negative one raises ValueError, as default_rng does. The
    Generators are the first len(uids) of `pool`, which grows as needed and
    belongs to the caller: a later call re-seeds the same objects.
    """
    u = np.asarray(uids)
    if u.dtype.kind not in "iu":  # Python ints that no one integer dtype holds
        u = np.array(uids, dtype=object)
    if u.size and u.min() < 0:
        raise ValueError(f"entropy value {int(u.min())} is negative")
    u = u.astype(np.uint64).reshape(-1)
    head, tail = _words(seed) + _words(round_index), _words(key)
    lo, hi = u & np.uint64(_MASK32), u >> np.uint64(32)
    words = np.empty((len(u), 4), dtype=np.uint64)
    # a uid takes one entropy word below 2**32 and two from there on
    for wide in (False, True):
        rows = np.flatnonzero((hi > 0) == wide)
        if rows.size:
            cols = [np.full(rows.size, w, dtype=np.uint32) for w in head]
            cols += [lo[rows].astype(np.uint32)] + ([hi[rows].astype(np.uint32)] if wide else [])
            cols += [np.full(rows.size, w, dtype=np.uint32) for w in tail]
            words[rows] = _seed_words(np.stack(cols, axis=1))
    while len(pool) < len(u):
        pool.append(np.random.Generator(np.random.PCG64(0)))
    for g, (s_hi, s_lo, i_hi, i_lo) in zip(pool, words.tolist()):
        # PCG64 seeding: state 0, inc = 2 * initseq + 1, step, add the seed, step
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        g.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
    return pool[: len(u)]


def _tail_shuffled(n: int, k: int) -> bool:
    """Whether `Generator.choice(n, k, replace=False)` shuffles the tail of
    a whole arange(n) table in place of Floyd's algorithm (numpy 2.4)."""
    return n > 10000 and k > n // 50


def choice_rows(rng: np.random.Generator, rows: int, n: int, k: int, replace: bool):
    """(chosen (rows, k) int64, uniform (rows, k)): for each row in turn,
    `rng.choice(n, size=k, replace=replace)` and then `rng.random(k)`, bit
    for bit, leaving `rng` in the state that loop leaves it in.

    On a PCG64 stream, blocks of rows are computed from the stream's words
    (`_draw_block`). The loop itself is the one fallback. It draws a row in
    which numpy would reject a bounded draw and draw again, and every row of
    an input numpy draws another way (`_tail_shuffled`, or k > n without
    replacement, where it raises) or with too few rows to a block.
    """
    chosen = np.empty((rows, k), dtype=np.int64)
    uniform = np.empty((rows, k))
    per_block = max(_BLOCK_DRAWS // max(3 * k, 1), 1)  # 3k bounds each row's 32-bit draws and doubles
    replica = (
        isinstance(rng.bit_generator, np.random.PCG64) and k >= 1 and n >= 1 and per_block >= _MIN_BLOCK_ROWS
        and (replace or (k <= n and not _tail_shuffled(n, k)))
    )
    u = 0
    while u < rows:
        block = slice(u, u + per_block)
        done = _draw_block(rng.bit_generator, chosen[block], uniform[block], n, replace) if replica else 0
        u += done
        if done < len(chosen[block]):  # a rejected draw, or no replica: this row the numpy way
            chosen[u] = rng.choice(n, size=k, replace=replace)
            uniform[u] = rng.random(k)
            u += 1
    return chosen, uniform


def _draw_block(bg: np.random.PCG64, chosen: np.ndarray, uniform: np.ndarray, n: int, replace: bool) -> int:
    """Fill rows of `chosen` and `uniform` as choice_rows does, from one
    `random_raw` call, up to the first row with a rejected bounded draw.
    Returns the number of rows filled, and leaves `bg` after them.

    A row's draws, in numpy's order: its bounded draws, then k doubles. A
    bounded draw below b is Lemire's: a 32-bit value h gives
    (h * (b + 1)) >> 32, unless the low 32 bits of that product fall below
    2**32 mod (b + 1), when numpy draws again; a bound of 0 draws nothing.
    The 32-bit values come from `next_uint32`: a buffered high half if the
    stream holds one, else the low half of a new word, whose high half it
    buffers. A double is (w >> 11) * 2**-53 of a word of its own.
    """
    rows, k = chosen.shape
    # with replacement, k draws below n; without, Floyd's picks (bounds
    # n - k .. n - 1) and the Fisher-Yates shuffle of them (k - 1 .. 1)
    bounds = np.full(k, n - 1) if replace else np.r_[n - k : n, k - 1 : 0 : -1]
    drawn = bounds > 0
    d = int(drawn.sum())
    nth = np.cumsum(drawn) - drawn  # each bounded draw's place among the row's 32-bit values
    state = bg.state
    buffered, half = state["has_uint32"], state["uinteger"]
    starts_buffered = (buffered + np.arange(rows + 1) * d) % 2  # an odd d flips the buffer
    b = starts_buffered[:-1]
    w32 = (d - b + 1) // 2  # each row's words for 32-bit values; k more for its doubles
    off = np.cumsum(w32 + k) - (w32 + k)
    words = bg.random_raw(int(off[-1] + w32[-1] + k))
    # the buffered half, then every word's halves, low first
    halves = np.concatenate(([np.uint32(half)], words.astype("<u8", copy=False).view("<u4")))
    high = 2 * (off + w32)  # `halves` index of the high half of each row's last 32-bit word
    at = (1 + 2 * off - b)[:, None] + nth
    if d:  # a row that starts buffered takes its first value from the row before it
        at[b == 1, np.argmax(drawn)] = np.r_[0, high[:-1]][b == 1]
    span = (bounds + 1).astype(np.uint64)
    m = np.multiply(halves[at], span, dtype=np.uint64)
    rejected = ((m & _MASK32) < (1 << 32) % span).any(axis=1)
    done = int(np.argmax(rejected)) if rejected.any() else rows
    m >>= 32
    values = m[:done].view(np.int64)  # below 2**32
    uniform[:done] = (words[(off + w32)[:done, None] + np.arange(k)] >> 11) * 2.0**-53
    chosen[:done] = values if replace else _fisher_yates(_floyd(values[:, :k], n), values[:, k:])
    if done < rows:  # rewind to the rejected row's first word
        bg.state = state
        bg.advance(int(off[done]))
    drew = np.flatnonzero(w32[:done])
    state = bg.state
    state["has_uint32"] = int(starts_buffered[done])
    # numpy keeps the last buffered half after handing it out
    state["uinteger"] = int(halves[high[drew[-1]]]) if drew.size else half
    bg.state = state
    return done


def _floyd(draws: np.ndarray, n: int) -> np.ndarray:
    """Floyd's picks of each row of `draws` (rows, k), draw t being below
    j_t = n - k + t: pick t is draw t, unless an earlier pick holds that
    value, then j_t.

    An earlier pick holds draw t exactly when an earlier draw of the row
    equals it, or when it is some j_s, s < t, and step s picked j_s (draws
    before s are below j_s). So one sort finds the repeated draws, and a
    walk along the links t -> s settles which steps picked their j."""
    rows, k = draws.shape
    j = np.arange(n - k, n)
    # (row, draw, position) keys are unique, so any sort orders them the same
    B, A = k.bit_length(), n.bit_length()
    key = np.sort(((np.arange(rows)[:, None] << A | draws) << B | np.arange(k)).ravel())
    value = key >> B
    repeated = np.empty(rows * k, dtype=bool)
    repeated[(key >> (A + B)) * k + (key & ((1 << B) - 1))] = np.r_[False, value[1:] == value[:-1]]
    repeated = repeated.reshape(rows, k)
    s = draws - (n - k)
    linked = (s >= 0) & (draws < j)
    link = (np.where(linked, s, 0) + np.arange(rows)[:, None] * k).ravel()
    took_j = repeated
    while True:  # as many passes as the longest chain of links
        step = repeated | linked & took_j.ravel()[link].reshape(rows, k)
        if np.array_equal(step, took_j):
            return np.where(took_j, j, draws)
        took_j = step


def _fisher_yates(picks: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """numpy's `_shuffle_int` of each row of `picks` (rows, k): for
    i = k - 1 .. 1, swap positions i and draws[:, k - 1 - i]. One position
    at a time for every row, on the transpose, where a position is a
    contiguous row."""
    rows, k = picks.shape
    out = picks.T.copy()
    flat = out.reshape(-1)
    other = draws.T * rows + np.arange(rows)  # each swap's other position, as an index of `flat`
    for step, i in enumerate(range(k - 1, 0, -1)):
        held = flat[other[step]]
        flat[other[step]] = out[i]
        out[i] = held
    return out.T
