"""The sampled sets of the campaigns, drawn without numpy.random.

`sample_rows` gives, bit for bit, the sorted rows that numpy 2's
`Generator(Philox(key=seed, counter=...)).choice(universe, size,
replace=False)` draws, from the two published algorithms under it:
Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC 2011) and Lemire's bounded integers ("Fast random
integer generation in an interval", ACM TOMACS 2019).  One call computes
the Philox blocks of every row at once, so a task pays neither the import
of numpy.random nor a Generator per set.  Tests compare it with numpy.
"""

from __future__ import annotations

import numpy as np

_U32 = 0xFFFFFFFF
_U64 = (1 << 64) - 1
# Philox4x64-10: the multipliers of a round and the increments of the key
# between rounds.
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and the high 64-bit word of a * m, for a uint64 array a."""
    a_lo, a_hi = a & _U32, a >> 32
    lh, hl = a_lo * (m >> 32), a_hi * (m & _U32)
    mid = (a_lo * (m & _U32) >> 32) + (lh & _U32) + (hl & _U32)
    return a * m, a_hi * (m >> 32) + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of counts[k] items, one after the other: the run of each
    item and its place in that run."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _philox_words(seed: int, counters: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The first 8 * blocks[k] 32-bit outputs of numpy's
    Philox(key=seed, counter=[*counters[k], 0]), for every k in turn, as one
    uint64 array.  Before each block of four 64-bit words the 256-bit
    counter goes up by one (word 0 first, with carry); each word gives its
    low half, then its high half."""
    job, step = _runs(blocks)
    step = (step + 1).astype(np.uint64)
    x0 = counters[job, 0] + step
    carry = (x0 < step).astype(np.uint64)
    x1 = counters[job, 1] + carry
    carry &= x1 == 0
    x2 = counters[job, 2] + carry
    x3 = carry & (x2 == 0)
    k0, k1 = seed & _U64, seed >> 64
    for _ in range(10):
        lo0, hi0 = _mulhilo(x0, _PHILOX_MUL[0])
        lo1, hi1 = _mulhilo(x2, _PHILOX_MUL[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k0, k1 = (k0 + _PHILOX_BUMP[0]) & _U64, (k1 + _PHILOX_BUMP[1]) & _U64
    words = np.stack([x0, x1, x2, x3], axis=-1)
    return np.stack([words & _U32, words >> 32], axis=-1).ravel()


def _bounded_draws(seed: int, counters: np.ndarray, draws: np.ndarray, job: np.ndarray,
                   t: np.ndarray, bounds: np.ndarray, spare: int) -> np.ndarray | None:
    """Lemire's bounded integers in 0..bounds[i] - 1 (ACM TOMACS 2019).  Draw
    i is draw t[i] of the draws[k] from the Philox stream of job k = job[i].
    It is the high word of u * bound for one 32-bit output u, unless the low
    word is below 2^32 mod bound: then this draw and the later ones of the
    job move on to the next output.  None when a job rejects more outputs
    than its `spare` extra blocks hold."""
    blocks = draws // 8 + spare
    words = _philox_words(seed, counters, blocks)
    end = np.cumsum(8 * blocks)
    pos = end[job] - 8 * blocks[job] + t
    threshold = (1 << 32) % bounds
    m = words[pos] * bounds
    rejected = np.flatnonzero((m & _U32) < threshold)
    while len(rejected):
        # The first rejected draw of each job, and every later draw of that
        # job, move on by one output.
        owner = job[rejected]
        first = np.full(len(draws), len(job))
        head = np.r_[True, owner[1:] != owner[:-1]]
        first[owner[head]] = rejected[head]
        later = np.flatnonzero(np.arange(len(job)) >= first[job])
        pos[later] += 1
        if (pos[later] >= end[job[later]]).any():
            return None
        m[later] = words[pos[later]] * bounds[later]
        rejected = later[(m[later] & _U32) < threshold[later]]
    return m >> 32


def sample_rows(seed: int, universe: int, counters, sizes) -> list[list[int]]:
    """Row k: the sorted values of numpy's
    Generator(Philox(key=seed, counter=[*counters[k], 0])).choice(
    universe, sizes[k], replace=False), computed without numpy.random.

    `choice` takes step j's value in 0..j from `_bounded_draws`.  Up to a
    universe of 10,000, or at sizes up to universe // 50, it runs Floyd's
    algorithm over j = universe - size .. universe - 1; otherwise it
    shuffles the tail of range(universe), drawing for j = universe - 1 down
    to universe - size, and that tail is the set Floyd's algorithm builds
    from the same values.  Its final shuffle leaves the sorted row as it
    is, and a row of the whole universe takes no draw.  The values fit 32
    bits only up to a universe of 2^32.
    """
    sizes = np.array(sizes, dtype=np.int64).reshape(-1)
    if universe > 1 << 32 or not ((0 <= sizes) & (sizes <= universe)).all():
        raise ValueError(f"cannot draw sizes {sizes.tolist()} from range({universe})")
    counters = np.array(counters, dtype=np.uint64).reshape(-1, 3)
    draws = np.where(sizes < universe, sizes, 0)
    tail = (universe > 10000) & (draws > universe // 50)
    job, t = _runs(draws)
    bounds = np.where(tail[job], universe - t, universe - draws[job] + 1 + t).astype(np.uint64)
    spare = 1
    while (values := _bounded_draws(seed, counters, draws, job, t, bounds, spare)) is None:
        spare *= 8
    values = values.tolist()
    rows, at = [], 0
    for size, n, shuffled in zip(sizes.tolist(), draws.tolist(), tail.tolist()):
        drawn = values[at:at + n]
        at += n
        if shuffled:
            drawn.reverse()
        chosen: set[int] = set()
        for j, v in zip(range(universe - n, universe), drawn):
            chosen.add(j if v in chosen else v)
        rows.append(sorted(chosen) if n == size else list(range(universe)))
    return rows
