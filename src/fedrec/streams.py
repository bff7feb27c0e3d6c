"""Per-client random streams derived for many clients in one pass.

A client's stream for round r and purpose `key` is
`np.random.default_rng([seed, r, uid, key])`. Building one such Generator
runs numpy's SeedSequence hash and PCG64 seeding in Python-level code, about
20 µs per client. `derive_generators` computes the same states for every
uid of a round at once: the SeedSequence hash runs on uint32 arrays with one
element per client, the PCG64 seeding on Python integers, and each state is
set on a Generator of a caller-owned pool, which later rounds reuse.

The arithmetic follows numpy's `SeedSequence` (pool size 4, entropy words
little-endian 32-bit, no spawn key) and `PCG64`'s seeding from four
generated 64-bit words; tests check it against `default_rng` bit for bit.
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
