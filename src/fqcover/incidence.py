"""Incidence counting on F_q^d: nu(t), line counts, hyperplane sums,
difference counts, and the read-outs of the geometric statements built on
them.

The central object is nu(t) = #{(x, y) in E x E : x.y = t} for a point
set E.  Its deviation from the uniform count |E|^2/q is tracked as the
exact integer numerator q*nu(t) - |E|^2: every inequality asserted here
is an inequality between integers.  Character sums enter only through the
spectral path and the transform identities, held to integers under the
bounds `spectral_error` and `identity_error`, from `fourier.transform_error`.

The counts (nu, line counts, hyperplane sums, difference counts) are
plain int64 arrays.  They take a `PointSet` that may be a stack of sets
of any sizes, and give one result per set along leading axes.  Only this
module tests for the point tables of F_q^d (`_table`: q^d <= 128 at the
default cap).  With them, nu, the hyperplane sums and the difference
counts are exact integer contractions of the stack's membership bits;
without them, each set is counted in turn on its own flat indices
(`_set_blocks`).  Each count's docstring gives its formula.  The line
counts read the direction of each point (`_directions`) on every space.
The read-outs of the remainder estimate and the second moment
(`remainder_sides`, `remainder_verdicts`, `second_moment_sides`) work
elementwise over leading axes too.  Their one caller,
`geometry._geometry_checks`, reads each check off the counts of a stack
as one column of verdicts over its sets; a single set is a stack of one.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from . import fourier
from .fourier import fourier_forward, point_add, point_dot, point_scale, row_blocks
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

    A set is not changed after construction, so the flat indices of a
    single set are computed once, on first use.  The named constructors,
    `flat_indices`, `contains_origin` and `union` are for a single set.
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
        if self.bits.ndim != 1:
            raise ValueError("flat indices are those of a single set, not of a stack")
        flats = np.flatnonzero(self.bits)
        flats.flags.writeable = False
        return flats

    def flat_indices(self) -> np.ndarray:
        """The sorted flat indices of the set (read-only, because they are
        shared)."""
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


def _set_blocks(e: PointSet, grid):
    """(i, rows, x, y) for each set i of e (over its leading axes,
    flattened) in turn: x, y = grid(flats) are the rows and the columns of
    that set's pair grid, from its own flat indices, and x is cut to the
    `row_blocks` slice rows of that grid."""
    for i, bits in enumerate(_bit_rows(e)):
        x, y = grid(np.flatnonzero(bits))
        for rows in row_blocks(len(x), len(y)):
            yield i, rows, x[rows], y


def _pair_counts(e: PointSet, grid, op, width: int) -> np.ndarray:
    """Per set of e, the int64 counts over range(width) of op(x, y) for
    the pairs (x, y) of its pair grid (`_set_blocks`), by one op and one
    bincount per row block."""
    counts = np.zeros((len(_bit_rows(e)), width), dtype=np.int64)
    for i, _, x, y in _set_blocks(e, grid):
        counts[i] += np.bincount(op(x[:, None], y).ravel(), minlength=width)
    return counts.reshape(e.bits.shape[:-1] + (width,))


def nu_bruteforce(e: PointSet) -> np.ndarray:
    """Exact nu, the int64 counts over t in F_q along the last axis, by
    counting all ordered pairs.  With the point tables, from the level sets
    of the dot table, per row block of sets: F and A1 in one contraction,
    nu(0) = sum_x E(x) F(x) and nu(t) = sum_x E(x) A1(x / t).  Without
    them, by direct enumeration of the pairs x.y (`_pair_counts`)."""
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
    return _pair_counts(e, lambda flats: (flats, flats), partial(point_dot, field, e.d), q)


def spectral_error(q: int, d: int, size):
    """`nu_spectral`'s rounding bound on sets of size points: the s-sums carry
    the error of Ehat as transform_error(q, d, |E|^2) and are a round of
    length |E| themselves; the last transform adds transform_error(q, 1, |E|^2)."""
    pairs = size ** 2
    return fourier.transform_error(q, d + 1, pairs) + fourier.transform_error(size, 1, pairs)


def identity_error(q: int, d: int, size):
    """The rounding bound of the identity checks' inverses on sets of size
    points: of the line counts, of mass q |E| (origin-free), and of q^d |Ehat|^2,
    of mass |E| and error transform_error(q, d, 2 |E|^{3/2}) (Cauchy-Schwarz)."""
    return fourier.transform_error(q, d, (q + 3 * size) * size)


def nu_spectral(e: PointSet) -> np.ndarray:
    """nu via characters: nu(t) = q^{-1} sum_s chi(-s t) S(s) with
    S(s) = sum_{x,y in E} chi(s (x.y)) = q^d sum_{x in E} Ehat(-s x).

    A value farther from its integer than `spectral_error`, or counts that
    do not sum to |E|^2, raise SpectralMismatchError.
    """
    field, d, q = e.field, e.d, e.field.q
    ehat = fourier_forward(field, d, e.bits).reshape(-1, q ** d)
    sizes = np.reshape(e.sizes, -1)
    s_sums = np.empty((len(sizes), q), dtype=np.complex128)
    for i, s, x, y in _set_blocks(e, lambda flats: (field.neg_table, flats)):
        s_sums[i, s] = q ** d * ehat[i, point_scale(field, d, y, x[:, None])].sum(axis=1)
    nu_c = fourier_forward(field, 1, s_sums)
    counts = np.rint(nu_c.real).astype(np.int64)
    exact = fourier.within_rounding(nu_c, counts, spectral_error(q, d, sizes))
    if not np.all(exact & (counts.sum(axis=1) == sizes ** 2)):
        raise SpectralMismatchError("spectral counts not within their rounding bound of "
                                    "integers that sum to |E|^2")
    return counts.reshape(e.bits.shape[:-1] + (q,))


def nu(e: PointSet) -> np.ndarray:
    # Per coordinate, brute force does |E|^2 pair steps and the transform
    # q^{d+1} multiply-adds, measured at about 40 times cheaper each (table
    # in CHANGES.md).  Up to 300 points brute force is taken anyway: on the
    # spaces with point tables (`_table`: q^d <= 128, so at most 128 points)
    # it contracts the bits in O(q^{2d}) per set, and in F_101^2 the two
    # paths cross at about 225 to 300 points (measured, CHANGES.md).  A stack
    # is judged by its largest set; both paths count each set on its own points.
    # Brute force is also taken where the spectral rounding bound reaches
    # 1/2, from about 1.3e5 points, where rounding would no longer be exact.
    q, d = e.field.q, e.d
    if (e.count <= 300 or 40 * e.count ** 2 <= q ** (d + 1)
            or spectral_error(q, d, e.count) >= 0.5):
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
    origin and the fixed points of j = `_directions`, and F(m) = F(j(m))."""
    field, d = e.field, e.d
    levels = _table(field, d, "levels")
    if levels is not None:
        hyper = np.einsum("sz,zm->sm", _bit_rows(e), levels[:, :len(levels)])
        return hyper.astype(np.int64).reshape(e.bits.shape)
    j = _directions(field, d)
    lines = np.flatnonzero(j == np.arange(len(j)))
    out = np.empty((len(_bit_rows(e)), len(lines)), dtype=np.int64)
    for i, rows, x, y in _set_blocks(e, lambda flats: (lines, flats)):
        out[i, rows] = np.count_nonzero(point_dot(field, d, x[:, None], y) == 0, axis=1)
    return out[:, np.searchsorted(lines, j)].reshape(e.bits.shape)


def difference_counts(e: PointSet) -> np.ndarray:
    """D(m) = #{(y, y') in E x E : y - y' = m} as int64 counts over the flat
    indices m, per set of a stack: the sum over y' in E of E(m + y').
    D(0) = |E|.  With the point tables, the bits gathered through the add
    table and contracted with the bits, per row block of sets.  Without
    them, the pairs y - y' (`_pair_counts`), with the points of each set
    negated once."""
    field, d = e.field, e.d
    add = _table(field, d, "add")
    if add is not None:
        bits = _bit_rows(e)
        out = np.empty(bits.shape, dtype=np.int64)
        for sets in row_blocks(len(bits), add.size, itemsize=1):
            out[sets] = np.einsum("sy,smy->sm", bits[sets], bits[sets][:, add])
        return out.reshape(e.bits.shape)
    minus = field.neg_table[1]
    return _pair_counts(e, lambda flats: (flats, point_scale(field, d, flats, minus)),
                        partial(point_add, field, d), field.q ** d)


def second_moment_sides(counts: np.ndarray, size, max_line, q: int, d: int):
    """(lhs, rhs) = (q sum_t nu(t)^2, M |E|^2 q^d + |E|^4) in Python
    integers, since nu(t)^2 can pass 2^63; elementwise over the leading
    axes of counts, size and max_line, M the largest line intersection."""
    c = counts.astype(object)
    n = np.asarray(size).astype(object)
    return q * (c * c).sum(axis=-1), np.asarray(max_line).astype(object) * n ** 2 * q ** d + n ** 4
