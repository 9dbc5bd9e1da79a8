"""Arithmetic of scalar sets: product sets, iterated sumsets, coverage checks.

The headline objects are the product set A*A = {a*a'}, its d-fold sumset
A*A + ... + A*A, and the dot-product set {x.y : x, y in E} of a point
set, which is the support of its counts nu.  Every theorem-style threshold with a fractional exponent is cleared
to an integer-power comparison (|A|^{2d} > q^{d+1} and friends), because
the interesting sets sit exactly at these boundaries and float powers
misclassify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .fourier import DENSE_BLOCK_BYTES, row_blocks
from .gf import Field, sqrt_subfield_indices
from .incidence import PointSet, OriginInSetError, max_line_intersection

MISSING_REPORT_LIMIT = 32


class BadArityError(ValueError):
    pass


class ArityMismatchError(ValueError):
    pass


class BadEpsilonError(ValueError):
    pass


@dataclass(eq=False)
class ScalarSet:
    """A subset of F_q as a dense membership array over element indices."""

    field: Field
    bits: np.ndarray
    count: int = dc_field(init=False)

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (self.field.q,):
            raise ValueError("bits must be a flat bool array of length q")
        self.count = int(self.bits.sum())

    @classmethod
    def empty(cls, field: Field) -> "ScalarSet":
        return cls(field, np.zeros(field.q, dtype=bool))

    @classmethod
    def full(cls, field: Field) -> "ScalarSet":
        return cls(field, np.ones(field.q, dtype=bool))

    @classmethod
    def from_indices(cls, field: Field, indices) -> "ScalarSet":
        bits = np.zeros(field.q, dtype=bool)
        bits[np.asarray(indices, dtype=np.int64)] = True
        return cls(field, bits)

    def indices(self) -> np.ndarray:
        return np.nonzero(self.bits)[0]

    def contains(self, idx: int) -> bool:
        return bool(self.bits[idx])

    def strip_zero(self) -> "ScalarSet":
        bits = self.bits.copy()
        bits[0] = False
        return ScalarSet(self.field, bits)

    def grid(self, d: int) -> PointSet:
        """The point set A^d = A x ... x A."""
        return PointSet.grid_of_scalars(self.field, d, self.indices())

    def __eq__(self, other) -> bool:
        return (isinstance(other, ScalarSet) and self.field is other.field
                and np.array_equal(self.bits, other.bits))


def _image(a: ScalarSet, b: ScalarSet, op) -> ScalarSet:
    """{op(x, y) : x in A, y in B} for an elementwise field operation op,
    in row blocks of A x B."""
    field = a.field
    sa, sb = a.indices(), b.indices()
    bits = np.zeros(field.q, dtype=bool)
    for rows in row_blocks(len(sa), len(sb)):
        bits[op(sa[rows, None], sb[None, :])] = True
    return ScalarSet(field, bits)


def pairwise_product_set(a: ScalarSet, b: ScalarSet) -> ScalarSet:
    """{x*y : x in A, y in B}, exact."""
    return _image(a, b, a.field.mul_arrays)


def product_set(a: ScalarSet) -> ScalarSet:
    """A*A = {x*y : x, y in A}."""
    return pairwise_product_set(a, a)


def sumset(a: ScalarSet, b: ScalarSet) -> ScalarSet:
    """{x + y : x in A, y in B}, exact field addition of indices."""
    return _image(a, b, a.field.add_arrays)


def iterated_sumset(s: ScalarSet, d: int) -> ScalarSet:
    """S + S + ... + S, d copies."""
    if d < 1:
        raise BadArityError(f"need at least one summand, got d={d}")
    out = s
    for _ in range(d - 1):
        out = sumset(out, s)
    return out


def sumset_of_products(a: ScalarSet, d: int) -> ScalarSet:
    """The d-fold sumset of the product set: A*A + ... + A*A (d times)."""
    return iterated_sumset(product_set(a), d)


def dot_product_set(e: PointSet) -> ScalarSet:
    """{x.y : x, y in E}, the support of nu."""
    return ScalarSet(e.field, e.nu_profile.counts > 0)


def covers_units(s: ScalarSet) -> tuple[bool, list[int]]:
    """Whether every nonzero field element lies in S, plus the missing ones."""
    missing = (np.flatnonzero(~s.bits[1:]) + 1).tolist()
    return not missing, missing


def scalar_cover_threshold(a: ScalarSet, d: int) -> bool:
    """|A|^{2d} > q^{d+1}, the exact form of |A| > q^{1/2 + 1/(2d)}.

    Equality is classified as threshold not met.
    """
    if d < 1:
        raise BadArityError(f"need d >= 1, got d={d}")
    return a.count ** (2 * d) > a.field.q ** (d + 1)


def point_cover_threshold(e: PointSet) -> bool:
    """|E|^2 > q^{d+1}, the exact form of |E| > q^{(d+1)/2}."""
    return e.count ** 2 > e.field.q ** (e.d + 1)


@dataclass
class CoverageVerdict:
    """Outcome of a coverage or lower-bound check, with the exact witness."""

    set_size: int
    covers_units: bool
    missing: list[int]
    threshold_met: bool | None
    lhs: int
    rhs: int
    extras: dict = dc_field(default_factory=dict)

    def to_report_dict(self) -> dict:
        return {
            "set_size": self.set_size,
            "covers_units": self.covers_units,
            "missing": self.missing[:MISSING_REPORT_LIMIT],
            "missing_count": len(self.missing),
            "threshold_met": self.threshold_met,
            "lhs": self.lhs,
            "rhs": self.rhs,
            **self.extras,
        }


def cover_verdict(a: ScalarSet, d: int) -> CoverageVerdict:
    """Coverage of the units by the d-fold sumset of A*A, with the exact
    threshold witness |A|^{2d} vs q^{d+1}."""
    s = sumset_of_products(a, d)
    covered, missing = covers_units(s)
    return CoverageVerdict(
        set_size=s.count,
        covers_units=covered,
        missing=missing,
        threshold_met=scalar_cover_threshold(a, d),
        lhs=a.count ** (2 * d),
        rhs=a.field.q ** (d + 1),
        extras={"input_size": a.count, "zero_covered": bool(s.bits[0])},
    )


def dense_block_rows(field: Field, k: int, d: int) -> int:
    """Rows of k-subsets per `covers_units_block` call, or 0 where the
    per-set `cover_verdict` path should be used instead.

    The dense form does q^2 work per row and sumset step, which beats the
    per-set pair work only when A*A can fill the field (k^2 >= q).  Its
    sumset step counts in uint8, so it needs q < 256 when d > 1.  Rows are
    sized so that a block's arrays, including the difference table it
    builds, stay under DENSE_BLOCK_BYTES; a field too large for one row
    gets 0.
    """
    q = field.q
    if k * k < q or (d > 1 and q > 255):
        return 0
    # Bytes per row: the products (int64) and the index buffers numpy
    # fills to compute them, the row offsets, the presence and count rows,
    # and the gathered q x q slice.  Fixed: 4 KiB of small arrays, and the
    # int64 q x q difference table with one int64 temporary of add_arrays.
    row = 16 * k * k + 64 + 3 * q + (q * q if d > 1 else 0)
    fixed = 4096 + (16 * q * q if d > 1 else 0)
    return max(0, (DENSE_BLOCK_BYTES - fixed) // row)


def covers_units_block(field: Field, subsets: np.ndarray, d: int) -> np.ndarray:
    """Whether the d-fold sumset of A*A covers the units, for every row A
    of the rows x k index array `subsets`; the same verdict as
    `cover_verdict(A, d).covers_units`.

    The sets are rows of a rows x q presence matrix.  One sumset step is a
    gather through the difference table diff[t, s] = t - s: t lies in
    S + P exactly when t - s lies in P for some s in S.  Size blocks with
    `dense_block_rows`, which also says where this form applies.
    """
    if d < 1:
        raise BadArityError(f"need at least one summand, got d={d}")
    rows, k = subsets.shape
    q = field.q
    # Products, offset in place to flat indices into the presence matrix.
    flat = field.mul_arrays(subsets[:, :, None], subsets[:, None, :])
    flat += q * np.arange(rows)[:, None, None]
    present = np.zeros((rows, q), dtype=bool)
    present.reshape(-1)[flat] = True
    cur = present
    if d > 1:
        elems = np.arange(q)
        diff = field.add_arrays(elems[:, None], field.neg_table[None, :])
        shifted = present[:, diff].view(np.uint8)
        for _ in range(d - 1):
            # Representation counts of t as s + (t - s): at most q < 256.
            cur = np.einsum("rts,rs->rt", shifted, cur.view(np.uint8)) > 0
    return cur[:, 1:].all(axis=1)


def dot_set_lower_bound(e: PointSet) -> CoverageVerdict:
    """Exact check of |{x.y}| * (M q^d + |E|^2) >= q |E|^2 for origin-free E.

    M is the measured maximum line intersection.
    """
    if e.contains_origin:
        raise OriginInSetError("lower bound check requires an origin-free set")
    q = e.field.q
    pset = dot_product_set(e)
    m_line = max_line_intersection(e)[0]
    lhs = pset.count * (m_line * q ** e.d + e.count ** 2)
    rhs = q * e.count ** 2
    covered, missing = covers_units(pset)
    return CoverageVerdict(
        set_size=pset.count,
        covers_units=covered,
        missing=missing,
        threshold_met=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        extras={"max_line": m_line, "input_size": e.count},
    )


def positive_proportion_check(a: ScalarSet, d: int) -> CoverageVerdict:
    """Exact check of |dA^2| * (m q^d + m^{2d}) >= q m^{2d} with m = |A \\ {0}|.

    This is the grid specialization of the dot-set lower bound: for
    E = (A \\ {0})^d every line meets E in at most m points.  If 0 is in
    A it is stripped first (0 contributes nothing new to products) and
    the verdict records that.  The size constant and the implied
    proportion are reported as float diagnostics only; the pass/fail is
    the integer inequality.
    """
    if d < 1:
        raise BadArityError(f"need d >= 1, got d={d}")
    field, q = a.field, a.field.q
    stripped = a.contains(0)
    core = a.strip_zero() if stripped else a
    m = core.count
    s = sumset_of_products(core, d) if m else ScalarSet.empty(field)
    lhs = s.count * (m * q ** d + m ** (2 * d))
    rhs = q * m ** (2 * d)
    covered, missing = covers_units(s)
    c_size = m ** d / q ** (d / 2 + d / (2 * (2 * d - 1)))
    c_pow = c_size ** (2 - 1 / d)
    return CoverageVerdict(
        set_size=s.count,
        covers_units=covered,
        missing=missing,
        threshold_met=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        extras={
            "input_size": m,
            "zero_stripped": stripped,
            "c_size": c_size,
            "implied_proportion": c_pow / (c_pow + 1),
        },
    )


def bilinear_cover(a_sets: list[ScalarSet], b_sets: list[ScalarSet]) -> CoverageVerdict:
    """Coverage by A_1*B_1 + ... + A_d*B_d, with the size-product ratio.

    There is no exact threshold here (the sufficient condition carries an
    unspecified constant), so threshold_met is None and the measured
    ratio prod |A_j||B_j| / q^{d+1} is reported for calibration.
    """
    if len(a_sets) != len(b_sets) or not a_sets:
        raise ArityMismatchError("need equally many A_j and B_j, at least one pair")
    field = a_sets[0].field
    d = len(a_sets)
    total = None
    size_product = 1
    for aj, bj in zip(a_sets, b_sets):
        term = pairwise_product_set(aj, bj)
        size_product *= aj.count * bj.count
        total = term if total is None else sumset(total, term)
    covered, missing = covers_units(total)
    rhs = field.q ** (d + 1)
    return CoverageVerdict(
        set_size=total.count,
        covers_units=covered,
        missing=missing,
        threshold_met=None,
        lhs=size_product,
        rhs=rhs,
        extras={"ratio": size_product / rhs},
    )


def d_for_epsilon(eps: Fraction) -> tuple[int, int]:
    """Exact rational ceilings: d for full coverage of the units and d for
    a positive proportion, given |A| >= C q^{1/2 + eps}.

    Coverage needs d = ceil(1/(2 eps)); a positive proportion needs
    d = ceil(1/2 + 1/(4 eps)).
    """
    eps = Fraction(eps)
    if not (0 < eps <= Fraction(1, 2)):
        raise BadEpsilonError(f"epsilon must lie in (0, 1/2], got {eps}")
    d_cover = math.ceil(1 / (2 * eps))
    d_proportion = math.ceil(Fraction(1, 2) + 1 / (4 * eps))
    return d_cover, d_proportion


def sqrt_subfield(field: Field) -> ScalarSet:
    """The subfield of size sqrt(q) as a ScalarSet (even degree only)."""
    return ScalarSet.from_indices(field, sqrt_subfield_indices(field))
