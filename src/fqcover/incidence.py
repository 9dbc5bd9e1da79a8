"""Incidence counting on F_q^d: nu(t), remainder bounds, hyperplane sums.

The central object is nu(t) = #{(x, y) in E x E : x.y = t} for a point
set E.  Its deviation from the uniform count |E|^2/q is tracked as the
exact integer numerator q*nu(t) - |E|^2: every inequality asserted here
is an inequality between integers, with floats confined to diagnostics.
Character sums enter only through the cross-validating spectral path and
the hyperplane transform identity.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .fourier import (
    SpectralFn,
    char_matrix,
    fourier_forward,
    point_dot,
    point_map,
    row_blocks,
)
from .gf import Field


class OriginInSetError(ValueError):
    pass


class ZeroDirectionError(ValueError):
    pass


class SpectralMismatchError(ArithmeticError):
    pass


@dataclass(eq=False)
class PointSet:
    """A subset of F_q^d as a dense membership array over flat indices.

    A set is not changed after construction, so its dot-product counts
    (`nu_profile`) and line counts (`line_counts`) are computed once, on
    first use, and shared by every check that reads them.
    """

    field: Field
    d: int
    bits: np.ndarray
    count: int = dc_field(init=False)

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (self.field.q ** self.d,):
            raise ValueError("bits must be a flat bool array of length q^d")
        self.count = int(self.bits.sum())

    @classmethod
    def empty(cls, field: Field, d: int) -> "PointSet":
        return cls(field, d, np.zeros(field.q ** d, dtype=bool))

    @classmethod
    def full(cls, field: Field, d: int) -> "PointSet":
        return cls(field, d, np.ones(field.q ** d, dtype=bool))

    @classmethod
    def from_flat(cls, field: Field, d: int, flats) -> "PointSet":
        bits = np.zeros(field.q ** d, dtype=bool)
        bits[np.asarray(flats, dtype=np.int64)] = True
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
        return cls.from_flat(field, d, point_map(field, d, field.mul_arrays, y_flat, t,
                                                 scalar=True))

    @classmethod
    def perp_hyperplane(cls, field: Field, d: int, m_flat: int) -> "PointSet":
        """The hyperplane {x : x.m = 0} for m != 0."""
        if m_flat == 0:
            raise ZeroDirectionError("hyperplane normal must be nonzero")
        return cls(field, d, point_dot(field, d, np.arange(field.q ** d), m_flat) == 0)

    def flat_indices(self) -> np.ndarray:
        return np.nonzero(self.bits)[0]

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

    @cached_property
    def nu_profile(self) -> "NuProfile":
        """nu(self), with its counts read-only because they are shared."""
        prof = nu(self)
        prof.counts.flags.writeable = False
        return prof

    @cached_property
    def line_counts(self) -> np.ndarray:
        """line_counts_all(self), read-only because it is shared."""
        counts = line_counts_all(self)
        counts.flags.writeable = False
        return counts


@dataclass
class NuProfile:
    """nu(t) over t in F_q, with the exact remainder numerators."""

    q: int
    set_size: int
    counts: np.ndarray  # int64, length q

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def r_numerator(self, t: int) -> int:
        """q*nu(t) - |E|^2, the remainder R(t) scaled by q (exact integer)."""
        return self.q * int(self.counts[t]) - self.set_size ** 2

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["t_index", "nu", "r_numerator"])
        for t in range(self.q):
            writer.writerow([t, int(self.counts[t]), self.r_numerator(t)])


def _require_origin_free(e: PointSet) -> None:
    if e.contains_origin:
        raise OriginInSetError("operation requires a set not containing the origin")


def nu_bruteforce(e: PointSet) -> NuProfile:
    """Exact nu by direct enumeration of all ordered pairs."""
    field = e.field
    counts = np.zeros(field.q, dtype=np.int64)
    flats = e.flat_indices()
    for rows in row_blocks(len(flats), len(flats)):
        dots = point_dot(field, e.d, flats[rows, None], flats)
        counts += np.bincount(dots.ravel(), minlength=field.q)
    return NuProfile(field.q, e.count, counts)


def nu_spectral(e: PointSet) -> NuProfile:
    """nu via the character-sum representation.

    nu(t) = q^{-1} sum_s chi(-s t) S(s) with
    S(s) = sum_{x,y in E} chi(s (x.y)) = q^d sum_{x in E} Ehat(-s x).

    Must reproduce the brute-force integers exactly after rounding; a
    rounding defect or a mismatch against a sampled direct count raises
    SpectralMismatchError.
    """
    field, d, q = e.field, e.d, e.field.q
    if e.count == 0:
        return NuProfile(q, 0, np.zeros(q, dtype=np.int64))
    ehat = fourier_forward(e.indicator()).values
    flats = e.flat_indices()
    s_sums = np.empty(q, dtype=np.complex128)
    for rows in row_blocks(q, len(flats)):
        scaled = point_map(field, d, field.mul_arrays, flats,
                           field.neg_table[rows, None], scalar=True)
        s_sums[rows] = q ** d * ehat[scaled].sum(axis=1)
    nu_c = char_matrix(field) @ s_sums / q
    counts_f = nu_c.real
    counts = np.rint(counts_f).astype(np.int64)
    defect = float(np.max(np.abs(counts_f - counts))) if q else 0.0
    imag = float(np.max(np.abs(nu_c.imag)))
    if defect > 1e-6 or imag > 1e-6:
        raise SpectralMismatchError(f"spectral counts not near integers "
                                    f"(defect {defect:.3g}, imag {imag:.3g})")
    if int(counts.sum()) != e.count ** 2:
        raise SpectralMismatchError("spectral counts do not sum to |E|^2")
    if e.count <= 300:
        t_star = int(np.argmax(counts))
        direct = int(nu_bruteforce(e).counts[t_star])
        if direct != int(counts[t_star]):
            raise SpectralMismatchError(
                f"spectral nu({t_star}) = {int(counts[t_star])}, direct count {direct}")
    return NuProfile(q, e.count, counts)


def nu(e: PointSet) -> NuProfile:
    # Per coordinate, brute force does |E|^2 pair steps and the transform
    # q^{d+1} multiply-adds, measured at about 40 times cheaper each (table
    # in CHANGES.md).  Up to 300 points nu_spectral recounts by brute force.
    if e.count <= 300 or 40 * e.count ** 2 <= e.field.q ** (e.d + 1):
        return nu_bruteforce(e)
    return nu_spectral(e)


@dataclass
class RemainderReport:
    ok: bool
    sharpness: float       # max over t != 0 of (q nu(t) - |E|^2)^2 / (|E|^2 q^{d+1})
    worst_t: int
    violations: list[int]
    zero_dot_within_bound: bool  # diagnostic: whether t = 0 happens to obey it too
    profile: NuProfile


def remainder_bound_check(e: PointSet) -> RemainderReport:
    """Exact check of (q*nu(t) - |E|^2)^2 <= |E|^2 * q^{d+1} for every t != 0.

    The bound is unconditional on the nonzero dot values, which is all the
    coverage statements consume.  It does NOT extend to t = 0: a
    self-orthogonal line (all of whose point pairs have dot product 0,
    e.g. the line through (1, 1) in characteristic 2) has nu(0) = |E|^2,
    overshooting the bound.  The t = 0 comparison is therefore reported
    as a diagnostic flag, never as a violation.

    A violation at t != 0 would falsify the remainder estimate and is
    never expected; it is reported, not raised, so sweeps can tally it.
    """
    q = e.field.q
    prof = e.nu_profile
    bound = e.count ** 2 * q ** (e.d + 1)
    violations = []
    worst_num, worst_t = -1, 1
    for t in range(1, q):
        num = prof.r_numerator(t) ** 2
        if num > worst_num:
            worst_num, worst_t = num, t
        if num > bound:
            violations.append(t)
    sharpness = 0.0 if bound == 0 else max(worst_num, 0) / bound
    zero_ok = prof.r_numerator(0) ** 2 <= bound
    return RemainderReport(not violations, sharpness, worst_t, violations,
                           zero_ok, prof)


def rotating_planes_apply(f: SpectralFn, t: int) -> SpectralFn:
    """(R_t f)(x) = sum over {y : x.y = t} of f(y).

    For x = 0 the solution set is all of F_q^d when t = 0 and empty
    otherwise.
    """
    field, d = f.field, f.d
    flats = np.arange(f.size)
    out = np.empty(f.size, dtype=np.complex128)
    for rows in row_blocks(f.size, f.size):
        dots = point_dot(field, d, flats[rows, None], flats)
        out[rows] = np.where(dots == t, f.values, 0).sum(axis=1)
    return SpectralFn(field, d, out)


def line_intersection(e: PointSet, y_flat: int) -> int:
    """|E intersect l_y| for the line l_y = {t*y}; y must be nonzero."""
    if y_flat == 0:
        raise ZeroDirectionError("line direction must be nonzero")
    return int((e.bits & PointSet.line(e.field, e.d, y_flat).bits).sum())


def line_counts_all(e: PointSet) -> np.ndarray:
    """|E intersect l_k| for every flat index k simultaneously.

    Entry 0 is not a line count (it accumulates q copies of the origin
    membership); callers must ignore it.
    """
    field, d, q = e.field, e.d, e.field.q
    flats = np.arange(q ** d)
    t = np.arange(q)
    counts = np.empty(q ** d, dtype=np.int64)
    for rows in row_blocks(q ** d, q):
        scaled = point_map(field, d, field.mul_arrays, flats[rows, None], t, scalar=True)
        counts[rows] = e.bits[scaled].sum(axis=1)
    return counts


def max_line_intersection(e: PointSet) -> tuple[int, int | None]:
    """(M, argmax) with M = max over lines of |E intersect l_y|.

    The argmax is the least flat index attaining M, which is also the
    canonical representative (least flat index) of its line.
    """
    if e.count == 0:
        return 0, None
    counts = e.line_counts
    best = 1 + int(np.argmax(counts[1:]))
    return int(counts[best]), best


def hyperplane_sum(e: PointSet) -> SpectralFn:
    """F(m) = #{x in E : x.m = 0}; F(0) = |E|."""
    field, d = e.field, e.d
    flats, points = e.flat_indices(), np.arange(field.q ** d)
    out = np.empty(field.q ** d, dtype=np.float64)
    for rows in row_blocks(len(points), len(flats)):
        out[rows] = (point_dot(field, d, points[rows, None], flats) == 0).sum(axis=1)
    return SpectralFn.from_real(field, d, out)


@dataclass
class HatIdentityReport:
    ok: bool
    max_abs_err: float


def hyperplane_hat_identity_check(e: PointSet, rtol: float = 1e-8) -> HatIdentityReport:
    """Check Fhat(k) = q^{-1} |E intersect l_k| (k != 0) and Fhat(0) = q^{-1}|E|.

    Requires an origin-free set; the derivation collapses the s-sum only
    when 0 is excluded from E.
    """
    _require_origin_free(e)
    q = e.field.q
    fhat = fourier_forward(hyperplane_sum(e)).values
    expected = e.line_counts.astype(np.float64) / q
    expected[0] = e.count / q
    err = float(np.max(np.abs(fhat - expected))) if fhat.size else 0.0
    tol = rtol * max(1.0, float(np.max(np.abs(expected))))
    return HatIdentityReport(err <= tol, err)


@dataclass
class SecondMomentReport:
    ok: bool
    lhs: int            # q * sum_t nu(t)^2
    rhs: int            # M * |E|^2 * q^d + |E|^4
    max_line: int


def second_moment_check(e: PointSet) -> SecondMomentReport:
    """Exact integer check of q * sum_t nu(t)^2 <= M |E|^2 q^d + |E|^4.

    M is the measured maximum line intersection, which stands in for the
    hypothesis constant pair of the conditional estimate.
    """
    _require_origin_free(e)
    q = e.field.q
    m_line = max_line_intersection(e)[0]
    lhs = q * sum(int(c) ** 2 for c in e.nu_profile.counts)
    rhs = m_line * e.count ** 2 * q ** e.d + e.count ** 4
    return SecondMomentReport(lhs <= rhs, lhs, rhs, m_line)
