"""Incidence counting on F_q^d: nu(t), line counts, hyperplane sums, and
the read-outs of the geometric statements built on them.

The central object is nu(t) = #{(x, y) in E x E : x.y = t} for a point
set E.  Its deviation from the uniform count |E|^2/q is tracked as the
exact integer numerator q*nu(t) - |E|^2: every inequality asserted here
is an inequality between integers, with floats confined to diagnostics.
Character sums enter only through the cross-validating spectral path and
the hyperplane transform identity.

The counts (nu, line counts, hyperplane sums) take a `PointSet` that may
be a stack of sets of one size, and give one result per set along leading
axes; each has one implementation, run in `fourier.stack_blocks`.  The
read-outs of the remainder estimate, the hat identity and the second
moment (`remainder_sides`, `remainder_verdicts`, `hat_identity_close`,
`second_moment_sides`) work elementwise over leading axes too.  Their one
caller, `harness._geometry_checks`, reads every set's verdicts off the
counts of a stack; a single set is a stack of one.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .fourier import (
    SpectralFn,
    char_matrix,
    fourier_forward,
    point_dot,
    point_scale,
    stack_blocks,
)
from .gf import Field


class ZeroDirectionError(ValueError):
    pass


class SpectralMismatchError(ArithmeticError):
    pass


@dataclass(eq=False)
class PointSet:
    """A subset of F_q^d as a dense membership array over flat indices, or
    a stack of subsets of one size: `bits` then has leading stack axes and
    `count` is the size of each set.  A scalar set, a subset of F_q, is a
    PointSet with d = 1, whose flat indices are element indices.

    A set is not changed after construction, so its flat indices are
    computed once, on first use.  The named constructors,
    `contains_origin`, `strip_origin` and `union` are for a single set.
    Two sets are equal when they have the same field object, the same d
    and equal bits.
    """

    field: Field
    d: int
    bits: np.ndarray
    count: int = dc_field(init=False)

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape[-1:] != (self.field.q ** self.d,):
            raise ValueError("bits must be a bool array of length q^d along its last axis")
        if self.bits.ndim == 1:
            self.count = int(np.count_nonzero(self.bits))
        else:
            sizes = self.bits.sum(axis=-1)
            if sizes.size and sizes.min() != sizes.max():
                raise ValueError("the sets of a stack must have one size")
            self.count = int(sizes.flat[0]) if sizes.size else 0

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
        flats = np.nonzero(self.bits)[-1].reshape(self.bits.shape[:-1] + (self.count,))
        flats.flags.writeable = False
        return flats

    def flat_indices(self) -> np.ndarray:
        """The sorted flat indices of the set, one row per set of a stack
        (read-only, because they are shared)."""
        return self._flats

    @property
    def contains_origin(self) -> bool:
        return bool(self.bits[0])

    def strip_origin(self) -> "PointSet":
        bits = self.bits.copy()
        bits[0] = False
        return PointSet(self.field, self.d, bits)

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.field, self.d, self.bits | other.bits)

    def indicator(self) -> SpectralFn:
        return SpectralFn.from_real(self.field, self.d, self.bits.astype(np.float64))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointSet) and self.field is other.field
                and self.d == other.d and np.array_equal(self.bits, other.bits))


@dataclass
class NuProfile:
    """nu(t) over t in F_q, with the exact remainder numerators.  The
    counts of a stack carry its leading axes; the methods take one set."""

    q: int
    set_size: int
    counts: np.ndarray  # int64, length q along the last axis

    def r_numerator(self, t: int) -> int:
        """q*nu(t) - |E|^2, the remainder R(t) scaled by q (exact integer)."""
        return self.q * int(self.counts[t]) - self.set_size ** 2

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["t_index", "nu", "r_numerator"])
        for t in range(self.q):
            writer.writerow([t, int(self.counts[t]), self.r_numerator(t)])


def _flat_rows(e: PointSet) -> np.ndarray:
    """The flat indices of e as a sets x count array."""
    return e.flat_indices().reshape(e.bits[..., 0].size, e.count)


def nu_bruteforce(e: PointSet) -> NuProfile:
    """Exact nu by direct enumeration of all ordered pairs: one point_dot
    per block of (set, x) over all y of the set, and one bincount offset
    by q per set of the block."""
    field, q = e.field, e.field.q
    flats = _flat_rows(e)
    counts = np.zeros((len(flats), q), dtype=np.int64)
    for sets, items in stack_blocks(len(flats), e.count, e.count):
        dots = point_dot(field, e.d, flats[sets, items, None], flats[sets, None, :])
        dots += q * np.arange(len(dots))[:, None, None]
        counts[sets] += np.bincount(dots.ravel(), minlength=len(dots) * q).reshape(-1, q)
    return NuProfile(q, e.count, counts.reshape(e.bits.shape[:-1] + (q,)))


def nu_spectral(e: PointSet) -> NuProfile:
    """nu via the character-sum representation.

    nu(t) = q^{-1} sum_s chi(-s t) S(s) with
    S(s) = sum_{x,y in E} chi(s (x.y)) = q^d sum_{x in E} Ehat(-s x).

    Must reproduce the brute-force integers exactly after rounding; a
    rounding defect or a mismatch against a sampled direct count raises
    SpectralMismatchError.
    """
    field, d, q = e.field, e.d, e.field.q
    lead = e.bits.shape[:-1]
    if e.count == 0:
        return NuProfile(q, 0, np.zeros(lead + (q,), dtype=np.int64))
    ehat = fourier_forward(e.indicator()).values.reshape(-1)
    flats = _flat_rows(e)
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
    if np.any(counts.sum(axis=1) != e.count ** 2):
        raise SpectralMismatchError("spectral counts do not sum to |E|^2")
    if e.count <= 300:
        t_star = np.argmax(counts, axis=1)
        direct = nu_bruteforce(e).counts.reshape(rows, q)[np.arange(rows), t_star]
        bad = np.flatnonzero(direct != counts[np.arange(rows), t_star])
        if len(bad):
            r = bad[0]
            raise SpectralMismatchError(
                f"spectral nu({t_star[r]}) = {counts[r, t_star[r]]}, direct count {direct[r]}")
    return NuProfile(q, e.count, counts.reshape(lead + (q,)))


def nu(e: PointSet) -> NuProfile:
    # Per coordinate, brute force does |E|^2 pair steps and the transform
    # q^{d+1} multiply-adds, measured at about 40 times cheaper each (table
    # in CHANGES.md).  Up to 300 points nu_spectral recounts by brute force.
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
    a stack: one gather of the bits at the scaled flats {t k : t in F_q},
    shared by the sets of a block.

    Entry 0 is not a line count (it accumulates q copies of the origin
    membership); callers must ignore it.
    """
    field, d, q = e.field, e.d, e.field.q
    bits = e.bits.reshape(-1, q ** d)
    flats = np.arange(q ** d)
    t = np.arange(q)
    counts = np.empty(bits.shape, dtype=np.int64)
    scaled, items_at = None, None
    for sets, items in stack_blocks(len(bits), q ** d, q):
        if items != items_at:
            scaled = point_scale(field, d, flats[items, None], t)
            items_at = items
        counts[sets, items] = bits[sets][:, scaled].sum(axis=2)
    return counts.reshape(e.bits.shape)


def hyperplane_sum(e: PointSet) -> SpectralFn:
    """F(m) = #{x in E : x.m = 0}, per set of a stack; F(0) = |E|."""
    field, d = e.field, e.d
    flats, points = _flat_rows(e), np.arange(field.q ** d)
    out = np.empty((len(flats), len(points)), dtype=np.float64)
    for sets, items in stack_blocks(len(flats), len(points), e.count):
        dots = point_dot(field, d, points[items, None], flats[sets, None, :])
        out[sets, items] = np.count_nonzero(dots == 0, axis=2)
    return SpectralFn.from_real(field, d, out.reshape(e.bits.shape))


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
