"""Incidence counting on F_q^d: nu(t), line counts, hyperplane sums,
difference counts, and the read-outs of the geometric statements built on
them.

The central object is nu(t) = #{(x, y) in E x E : x.y = t} for a point
set E.  Its deviation from the uniform count |E|^2/q is tracked as the
exact integer numerator q*nu(t) - |E|^2: every inequality asserted here
is an inequality between integers, with floats confined to diagnostics.
Character sums enter only through the cross-validating spectral path and
the hyperplane transform identity.

The counts (nu, line counts, hyperplane sums, difference counts) are
plain int64 arrays.  They take a `PointSet` that may be a stack of sets
of any sizes, and give one result per set along leading axes.  Only this
module tests for the point tables of F_q^d (`_table`: q^d <= 128 at the
default cap).  With them, nu, the hyperplane sums and the difference
counts are exact integer contractions of the stack's membership bits,
which carry no padding: F = bits . Z0, Z0[x, m] = [x.m = 0];
D(m) = sum_y E(y) E(m + y) through the add table; nu(0) = sum_x E(x) F(x)
and, by dilation, nu(t) = sum_x E(x) A1(x / t) for t != 0, where
A1 = bits . Z1, Z1[x, m] = [x.m = 1].  Without them, nu and the
difference counts count the pairs x.y and y - y' (`_pair_counts`) and the
hyperplane sums pair each set with one point per line through the origin,
in `fourier.stack_blocks` blocks, with every set padded to the largest of
the stack by copies of the origin, whose share each kernel takes off.
The line counts read the direction of each point (`_directions`) on every
space.  The read-outs of the remainder estimate, the hat identity and the
second moment (`remainder_sides`, `remainder_verdicts`,
`hat_identity_close`, `second_moment_sides`) work elementwise over leading
axes too.  Their one caller, `harness._geometry_checks`, reads every
set's verdicts off the counts of a stack; a single set is a stack of one.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from . import fourier
from .fourier import (
    char_matrix,
    fourier_forward,
    point_add,
    point_dot,
    point_scale,
    row_blocks,
    stack_blocks,
)
from .gf import Field


class ZeroDirectionError(ValueError):
    pass


class SpectralMismatchError(ArithmeticError):
    pass


class PointSet:
    """A subset of F_q^d as a dense membership array over flat indices, or
    a stack of subsets: `bits` then has leading stack axes, `sizes` holds
    the size of each set over them and `count` is the largest.  For a
    single set, `count` and `sizes` are its size.  A scalar set, a subset
    of F_q, is a PointSet with d = 1, whose flat indices are element
    indices.

    A set is not changed after construction, so its flat indices are
    computed once, on first use.  The named constructors,
    `contains_origin` and `union` are for a single set.
    Two sets are equal when they have the same field object, the same d
    and equal bits.
    """

    def __init__(self, field: Field, d: int, bits: np.ndarray):
        self.field = field
        self.d = d
        self.bits = np.asarray(bits, dtype=bool)
        if self.bits.shape[-1:] != (field.q ** d,):
            raise ValueError("bits must be a bool array of length q^d along its last axis")
        if self.bits.ndim == 1:
            self.count = self.sizes = int(np.count_nonzero(self.bits))
        else:
            self.sizes = np.count_nonzero(self.bits, axis=-1)
            self.count = int(self.sizes.max(initial=0))

    @classmethod
    def empty(cls, field: Field, d: int) -> "PointSet":
        return cls(field, d, np.zeros(field.q ** d, dtype=bool))

    @classmethod
    def full(cls, field: Field, d: int) -> "PointSet":
        return cls(field, d, np.ones(field.q ** d, dtype=bool))

    @classmethod
    def from_flat(cls, field: Field, d: int, flats) -> "PointSet":
        """The set of the given flat indices, or the stack of the sets in
        the rows (last axis) of a flat-index array."""
        flats = np.asarray(flats, dtype=np.int64)
        bits = np.zeros(flats.shape[:-1] + (field.q ** d,), dtype=bool)
        if flats.ndim == 1:
            bits[flats] = True
        else:
            np.put_along_axis(bits, flats, True, axis=-1)
        return cls(field, d, bits)

    @classmethod
    def grid_of_scalars(cls, field: Field, d: int, scalar_indices) -> "PointSet":
        """The product set A x A x ... x A for A given by scalar indices."""
        q = field.q
        idx = np.asarray(scalar_indices, dtype=np.int64)
        flats = np.zeros(1, dtype=np.int64)
        for i in range(d):
            flats = (flats[:, None] + idx[None, :] * q ** i).reshape(-1)
        return cls.from_flat(field, d, flats)

    @classmethod
    def line(cls, field: Field, d: int, y_flat: int) -> "PointSet":
        """The line {t*y : t in F_q} through the origin and y != 0."""
        if y_flat == 0:
            raise ZeroDirectionError("line through the zero direction is undefined")
        t = np.arange(field.q)
        return cls.from_flat(field, d, point_scale(field, d, y_flat, t))

    @classmethod
    def perp_hyperplane(cls, field: Field, d: int, m_flat: int) -> "PointSet":
        """The hyperplane {x : x.m = 0} for m != 0."""
        if m_flat == 0:
            raise ZeroDirectionError("hyperplane normal must be nonzero")
        return cls(field, d, point_dot(field, d, np.arange(field.q ** d), m_flat) == 0)

    @cached_property
    def _flats(self) -> np.ndarray:
        if self.bits.ndim == 1:
            flats = np.flatnonzero(self.bits)
        else:
            flats = np.zeros(self.bits.shape[:-1] + (self.count,), dtype=np.int64)
            flats[np.arange(self.count) < self.sizes[..., None]] = np.nonzero(self.bits)[-1]
        flats.flags.writeable = False
        return flats

    def flat_indices(self) -> np.ndarray:
        """The sorted flat indices of the set, or one row per set of a
        stack, padded up to `count` with 0, the origin (read-only, because
        they are shared)."""
        return self._flats

    @property
    def contains_origin(self) -> bool:
        return bool(self.bits[0])

    def strip_origin(self) -> "PointSet":
        """The set, or every set of a stack, without the origin."""
        bits = self.bits.copy()
        bits[..., 0] = False
        return PointSet(self.field, self.d, bits)

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.field, self.d, self.bits | other.bits)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointSet) and self.field is other.field
                and self.d == other.d and np.array_equal(self.bits, other.bits))


def _flat_rows(e: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of e as a sets x count array, padded with the
    origin, and the size of each set."""
    sizes = np.reshape(e.sizes, -1)
    return e.flat_indices().reshape(len(sizes), e.count), sizes


def _bit_rows(e: PointSet) -> np.ndarray:
    """The bits of e as a sets x q^d uint8 array (a view)."""
    return e.bits.reshape(-1, e.bits.shape[-1]).view(np.uint8)


def _table(field: Field, d: int, name: str) -> np.ndarray | None:
    """The point table `name` of F_q^d: the uint8 levels[x, j q^d + m] =
    [x.m = j] for j = 0, 1, and the int64 add[x, y] = flat(x + y) and
    over[x, t - 1] = flat(x / t).  None unless the q^d x q^d pair grid
    fits one row block, tested on every call so that a patched cap takes
    effect on a field that holds the tables.  All three are built on first
    use and kept on the field."""
    size = field.q ** d
    if 16 * size * size > fourier.DENSE_BLOCK_BYTES:
        return None
    tables = field._coords_cache
    if (d, name) not in tables:
        flats = np.arange(size)
        dots = point_dot(field, d, flats[:, None], flats)
        tables[d, "levels"] = np.concatenate([dots == 0, dots == 1], axis=1).view(np.uint8)
        tables[d, "add"] = point_add(field, d, flats[:, None], flats)
        tables[d, "over"] = point_scale(field, d, flats[:, None], field.inv_table[1:])
    return tables[d, name]


def _directions(field: Field, d: int) -> np.ndarray:
    """j[x] = flat(x / c) for every flat index x, c the last nonzero
    coordinate of x: the point of the line through x and the origin whose
    last nonzero coordinate is 1, so that j(s x) = j(x) for every unit s;
    j[0] = 0.  Built on first use on every space, coordinate by coordinate,
    and kept on the field."""
    tables = field._coords_cache
    if (d, "direction") not in tables:
        flats = lead = np.arange(field.q ** d)
        for _ in range(d - 1):
            lead = np.where(lead >= field.q, lead // field.q, lead)
        tables[d, "direction"] = point_scale(field, d, flats, field.inv_table[lead])
    return tables[d, "direction"]


def _pair_counts(e: PointSet, op, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per set of e, the int64 counts over range(width) of op(x, y) for the
    ordered pairs (x, y) of its flat indices, padded up to e.count with the
    origin, by one op and one bincount offset by width per `stack_blocks`
    block; and the size of each set."""
    flats, sizes = _flat_rows(e)
    counts = np.zeros((len(flats), width), dtype=np.int64)
    for sets, items in stack_blocks(len(flats), e.count, e.count):
        keys = op(flats[sets, items, None], flats[sets, None, :])
        keys += width * np.arange(len(keys))[:, None, None]
        counts[sets] += np.bincount(keys.ravel(), minlength=len(keys) * width).reshape(-1, width)
    return counts, sizes


def nu_bruteforce(e: PointSet) -> np.ndarray:
    """Exact nu, the int64 counts over t in F_q along the last axis, by
    counting all ordered pairs.  With the point tables, from the level sets
    of the dot table, per row block of sets: F and A1 in one contraction,
    nu(0) = sum_x E(x) F(x) and nu(t) = sum_x E(x) A1(x / t).  Without
    them, by direct enumeration of the pairs x.y (`_pair_counts`); padding
    a k-set to K points adds K^2 - k^2 pairs at t = 0."""
    field, q = e.field, e.field.q
    levels = _table(field, e.d, "levels")
    if levels is not None:
        bits, size, over = _bit_rows(e), len(levels), _table(field, e.d, "over")
        counts = np.empty((len(bits), q), dtype=np.int64)
        for sets in row_blocks(len(bits), size * q, itemsize=1):
            hyper = np.einsum("sx,xm->sm", bits[sets], levels)
            # Exact in int16: nu(t) <= |E|^2 <= 128^2 < 2^15.
            counts[sets, 0] = np.einsum("sx,sx->s", bits[sets], hyper[:, :size], dtype=np.int16)
            counts[sets, 1:] = np.einsum("sx,sxt->st", bits[sets], hyper[:, size:][:, over],
                                         dtype=np.int16)
        return counts.reshape(e.bits.shape[:-1] + (q,))
    counts, sizes = _pair_counts(e, partial(point_dot, field, e.d), q)
    counts[:, 0] -= e.count ** 2 - sizes ** 2
    return counts.reshape(e.bits.shape[:-1] + (q,))


def nu_spectral(e: PointSet) -> np.ndarray:
    """nu via the character-sum representation.

    nu(t) = q^{-1} sum_s chi(-s t) S(s) with
    S(s) = sum_{x,y in E} chi(s (x.y)) = q^d sum_{x in E} Ehat(-s x).

    Padding a k-set to K points adds (K - k) k to every S(s), so to nu(0).

    Must reproduce the brute-force integers exactly after rounding; a
    rounding defect, a set whose counts do not sum to |E|^2, or a mismatch
    against a sampled direct count (on each set of at most 300 points)
    raises SpectralMismatchError.
    """
    field, d, q = e.field, e.d, e.field.q
    lead = e.bits.shape[:-1]
    if e.count == 0:
        return np.zeros(lead + (q,), dtype=np.int64)
    ehat = fourier_forward(field, d, e.bits).reshape(-1)
    flats, sizes = _flat_rows(e)
    rows = len(flats)
    s_sums = np.empty((rows, q), dtype=np.complex128)
    for sets, items in stack_blocks(rows, q, e.count):
        scaled = point_scale(field, d, flats[sets, None, :], field.neg_table[items, None])
        scaled += q ** d * np.arange(sets.start, sets.start + len(scaled))[:, None, None]
        s_sums[sets, items] = q ** d * ehat[scaled].sum(axis=2)
    nu_c = s_sums @ char_matrix(field).T / q
    counts_f = nu_c.real
    counts = np.rint(counts_f).astype(np.int64)
    defect = float(np.max(np.abs(counts_f - counts)))
    imag = float(np.max(np.abs(nu_c.imag)))
    if defect > 1e-6 or imag > 1e-6:
        raise SpectralMismatchError(f"spectral counts not near integers "
                                    f"(defect {defect:.3g}, imag {imag:.3g})")
    counts[:, 0] -= (e.count - sizes) * sizes
    if np.any(counts.sum(axis=1) != sizes ** 2):
        raise SpectralMismatchError("spectral counts do not sum to |E|^2")
    small = np.flatnonzero(sizes <= 300)
    if len(small):
        t_star = np.argmax(counts[small], axis=1)
        recount = PointSet(field, d, e.bits.reshape(rows, -1)[small])
        direct = nu_bruteforce(recount)[np.arange(len(small)), t_star]
        bad = np.flatnonzero(direct != counts[small, t_star])
        if len(bad):
            r, t = small[bad[0]], t_star[bad[0]]
            raise SpectralMismatchError(
                f"spectral nu({t}) = {counts[r, t]}, direct count {direct[bad[0]]}")
    return counts.reshape(lead + (q,))


def nu(e: PointSet) -> np.ndarray:
    # Per coordinate, brute force does |E|^2 pair steps and the transform
    # q^{d+1} multiply-adds, measured at about 40 times cheaper each (table
    # in CHANGES.md).  Up to 300 points nu_spectral recounts by brute force.
    # A stack is judged by its largest set, to which both pad the others,
    # except on spaces with point tables (`_table`: q^d <= 128, so at most
    # 128 points), where brute force contracts the unpadded bits in
    # O(q^{2d}) per set and never pads.
    if e.count <= 300 or 40 * e.count ** 2 <= e.field.q ** (e.d + 1):
        return nu_bruteforce(e)
    return nu_spectral(e)


def remainder_sides(counts: np.ndarray, size, q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(r, B) with r(t) = q nu(t) - |E|^2 and B = isqrt(|E|^2 q^{d+1}), so
    that the remainder estimate at t reads |r(t)| <= B exactly; elementwise
    over the leading axes of counts and size.  r is int64: |r(t)| is at
    most q |E|^2, under 2^52 for every space `geometry` accepts."""
    size = np.asarray(size, dtype=np.int64)
    r = q * counts - (size ** 2)[..., None]
    bound = np.array([math.isqrt(int(n) ** 2 * q ** (d + 1)) for n in size.flat],
                     dtype=np.int64).reshape(size.shape)
    return r, bound


def remainder_verdicts(r: np.ndarray, bound) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ok, worst_t, r(worst_t)) for r and B of `remainder_sides`, over the
    leading axes: whether |r(t)| <= B at every t != 0, and the first t != 0
    where |r(t)| is largest.  The bound does NOT extend to t = 0: the
    self-orthogonal line through (1, 1) in characteristic 2 has every pair
    dot to 0, so nu(0) = |E|^2 overshoots it."""
    dev = np.abs(r[..., 1:])
    worst_t = 1 + np.argmax(dev, axis=-1)
    ok = (dev <= np.asarray(bound)[..., None]).all(axis=-1)
    return ok, worst_t, np.take_along_axis(r, worst_t[..., None], axis=-1)[..., 0]


def line_counts_all(e: PointSet) -> np.ndarray:
    """|E intersect l_k| for every flat index k simultaneously, per set of
    a stack: E(0) plus the points of E without the origin in the direction
    j(k) of k (`_directions`), from one bincount of the directions of the
    points of a row block of sets.

    Entry 0 is not a line count (it is q E(0), q copies of the origin
    membership); callers must ignore it.
    """
    j = _directions(e.field, e.d)
    size = len(j)
    bits = e.bits.reshape(-1, size)
    counts = np.empty(bits.shape, dtype=np.int64)
    for sets in row_blocks(len(bits), size):
        block = bits[sets]
        rows, points = np.nonzero(block)
        # hits[s, 0] is E(0): no point but the origin has direction 0.
        hits = np.bincount(rows * size + j[points], minlength=block.size).reshape(-1, size)
        counts[sets] = hits[:, j] + hits[:, :1]
    counts[:, 0] = e.field.q * bits[:, 0]
    return counts.reshape(e.bits.shape)


def hyperplane_sum(e: PointSet) -> np.ndarray:
    """F(m) = #{x in E : x.m = 0} as int64 counts over the flat indices m,
    per set of a stack; F(0) = |E|.  With the point tables, one
    contraction of the bits with the level set x.m = 0, exact in uint8
    since F(m) <= 128.  Without them, each set is dotted only with the
    origin and the fixed points of j = `_directions`, and F(m) = F(j(m));
    the origins that pad a set lie on every hyperplane."""
    field, d = e.field, e.d
    levels = _table(field, d, "levels")
    if levels is not None:
        hyper = np.einsum("sz,zm->sm", _bit_rows(e), levels[:, :len(levels)])
        return hyper.astype(np.int64).reshape(e.bits.shape)
    (flats, sizes), j = _flat_rows(e), _directions(field, d)
    lines = np.flatnonzero(j == np.arange(len(j)))
    out = np.empty((len(flats), len(lines)), dtype=np.int64)
    for sets, items in stack_blocks(len(flats), len(lines), e.count):
        dots = point_dot(field, d, lines[items, None], flats[sets, None, :])
        out[sets, items] = np.count_nonzero(dots == 0, axis=2)
    out -= (e.count - sizes)[:, None]
    return out[:, np.searchsorted(lines, j)].reshape(e.bits.shape)


def difference_counts(e: PointSet) -> np.ndarray:
    """D(m) = #{(y, y') in E x E : y - y' = m} as int64 counts over the flat
    indices m, per set of a stack: the sum over y' in E of E(m + y').
    D(0) = |E|.  With the point tables, the bits gathered through the add
    table and contracted with the bits, per row block of sets.  Without
    them, the pairs y - y' (`_pair_counts`), less the padding's: the
    K - k origins that pad a k-set add (K - k)(E(m) + E(-m)) to every
    D(m), and (K - k)^2 more to D(0)."""
    field, d = e.field, e.d
    add = _table(field, d, "add")
    if add is not None:
        bits = _bit_rows(e)
        out = np.empty(bits.shape, dtype=np.int64)
        for sets in row_blocks(len(bits), add.size, itemsize=1):
            out[sets] = np.einsum("sy,smy->sm", bits[sets], bits[sets][:, add])
        return out.reshape(e.bits.shape)
    size, minus = field.q ** d, field.neg_table[1]
    counts, sizes = _pair_counts(
        e, lambda x, y: point_add(field, d, x, point_scale(field, d, y, minus)), size)
    pad, bits = (e.count - sizes)[:, None], e.bits.reshape(counts.shape)
    counts -= pad * bits + pad * bits[:, point_scale(field, d, np.arange(size), minus)]
    counts[:, 0] -= pad[:, 0] ** 2
    return counts.reshape(e.bits.shape)


def hat_identity_close(fhat: np.ndarray, line_counts: np.ndarray, size,
                       q: int) -> tuple[np.ndarray, np.ndarray]:
    """(ok, err) of Fhat(k) = q^{-1} |E intersect l_k| (k != 0) and
    Fhat(0) = q^{-1} |E|, elementwise over the leading axes: err is the
    largest deviation, ok whether it is within a relative 1e-8 of the
    largest value.  It needs origin-free E to collapse the s-sum."""
    expected = line_counts / q
    expected[..., 0] = np.asarray(size) / q
    err = np.max(np.abs(fhat - expected), axis=-1)
    return err <= 1e-8 * np.maximum(1.0, np.max(np.abs(expected), axis=-1)), err


def second_moment_sides(counts: np.ndarray, size, max_line, q: int, d: int):
    """(lhs, rhs) = (q sum_t nu(t)^2, M |E|^2 q^d + |E|^4) in Python
    integers, since nu(t)^2 can pass 2^63; elementwise over the leading
    axes of counts, size and max_line, M the largest line intersection."""
    c = counts.astype(object)
    n = np.asarray(size).astype(object)
    return q * (c * c).sum(axis=-1), np.asarray(max_line).astype(object) * n ** 2 * q ** d + n ** 4
