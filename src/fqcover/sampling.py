"""The sampler of every command, drawn without numpy.random.

`Streams` gives, bit for bit, what numpy 2's `Generator(Philox(key=seed,
counter=...))` draws by `integers` and by `choice(universe, size,
replace=False)`, from the two published algorithms under it:
Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC 2011) and Lemire's bounded integers ("Fast random
integer generation in an interval", ACM TOMACS 2019).  One call computes
the Philox blocks of every stream at once, so a run pays neither the
import of numpy.random nor a Generator per set.  Tests compare it with
numpy.
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


def _philox_words(seed: int, counters: np.ndarray, first: np.ndarray,
                  blocks: np.ndarray) -> np.ndarray:
    """The 32-bit outputs 8 * first[k] .. 8 * (first[k] + blocks[k]) - 1 of
    numpy's Philox(key=seed, counter=[*counters[k], 0]), for every k in
    turn, as one uint64 array.  Before each block of four 64-bit words the
    256-bit counter goes up by one (word 0 first, with carry); each word
    gives its low half, then its high half."""
    job, step = _runs(blocks)
    step = (first[job] + step + 1).astype(np.uint64)
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


def _bounded_draws(seed: int, counters: np.ndarray, starts: np.ndarray, draws: np.ndarray,
                   bounds: np.ndarray, spare: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's bounded integers in 0..bounds[i] - 1 <= 2^32 (ACM TOMACS
    2019), draws[k] of them from the Philox stream of job k from its 32-bit
    output starts[k] on, and the outputs they were read from.  A draw is
    the high word of u * bound for one output u, unless the low word is
    below 2^32 mod bound: then this draw and the later ones of the job
    move on to the next output.  A job's words run from the block of its
    start to `spare` blocks past its draws, more if it rejects past them."""
    job, t = _runs(draws)
    block, skip = np.divmod(starts, 8)
    blocks = (skip + draws) // 8 + spare
    words = _philox_words(seed, counters, block, blocks)
    end = np.cumsum(8 * blocks)
    # Output o of a job is words[o + origin].
    origin = np.repeat(end - 8 * blocks - 8 * block, draws)
    pos = origin + np.repeat(starts, draws) + t
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
            return _bounded_draws(seed, counters, starts, draws, bounds, spare=8 * spare)
        m[later] = words[pos[later]] * bounds[later]
        rejected = later[(m[later] & _U32) < threshold[later]]
    return m >> 32, pos - origin


class Streams:
    """numpy's Generator(Philox(key=seed, counter=[*c, 0])) for each counter
    c, drawn in step: a call gives what `integers` or the sorted `choice`
    gives on every stream, and leaves each where numpy's stands."""

    def __init__(self, seed: int, counters):
        self.seed = seed
        self.counters = np.array(counters, dtype=np.uint64).reshape(-1, 3)
        self.at = np.zeros(len(self.counters), dtype=np.int64)

    def _draw(self, draws: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Values in 0..b - 1 for the bounds b in turn, draws[k] of them from
        stream k.  As in numpy, a one-value range takes no output."""
        taken = bounds > 1
        counts = np.bincount(_runs(draws)[0][taken], minlength=len(draws))
        values = np.zeros(len(bounds), dtype=np.uint64)
        values[taken], pos = _bounded_draws(self.seed, self.counters, self.at, counts,
                                            bounds[taken])
        moved = counts > 0
        self.at[moved] = pos[np.cumsum(counts)[moved] - 1] + 1
        return values

    def integers(self, low: int, high: int, size: int = 1) -> np.ndarray:
        """numpy's `integers(low, high, size)`, a row per stream, for
        high - low <= 2^32."""
        n = len(self.at)
        values = self._draw(np.full(n, size), np.full(n * size, high - low, dtype=np.uint64))
        return low + values.astype(np.int64).reshape(n, size)

    def choice(self, universe: int, sizes, shuffle: bool = True) -> list[list[int]]:
        """Row k: the sorted `choice(universe, sizes[k], replace=False)` of
        stream k.  It takes step j's value in 0..j.  Up to a universe of
        10,000, or at sizes up to universe // 50, Floyd's algorithm runs
        over j = universe - size .. universe - 1, and one draw in 0..i for
        i = size - 1 .. 1 shuffles the set, unless `shuffle` is false.
        Otherwise the tail of range(universe), shuffled for j from
        universe - 1 down to universe - size, is the set that Floyd's
        algorithm builds from the same values.  Values fit 32 bits."""
        sizes = np.array(sizes, dtype=np.int64).reshape(-1)
        if universe > 1 << 32 or not ((0 <= sizes) & (sizes <= universe)).all():
            raise ValueError(f"cannot draw sizes {sizes.tolist()} from range({universe})")
        tail = (universe > 10000) & (sizes > universe // 50)
        draws = np.where(tail | (not shuffle), sizes, np.maximum(2 * sizes - 1, 0))
        job, t = _runs(draws)
        k = sizes[job]
        bounds = np.where(tail[job], universe - t, np.where(t < k, universe - k + 1 + t, 2 * k - t))
        values = self._draw(draws, bounds.astype(np.uint64)).tolist()
        rows, at = [], 0
        for size, n, shuffled in zip(sizes.tolist(), draws.tolist(), tail.tolist()):
            drawn = values[at:at + size]
            at += n
            # Floyd's algorithm: at step j, its value, or j if the set holds
            # the value already.
            chosen: set[int] = set()
            for j, v in zip(range(universe - size, universe), drawn[::-1] if shuffled else drawn):
                chosen.add(j if v in chosen else v)
            rows.append(sorted(chosen))
        return rows


def sample_rows(seed: int, universe: int, counters, sizes) -> list[list[int]]:
    """The sets of the campaigns, one call per run of tasks: the sorted
    choice of sizes[k] values on the stream of counters[k], for row k."""
    return Streams(seed, counters).choice(universe, sizes, shuffle=False)
