"""Arithmetic of scalar sets: product sets, iterated sumsets, coverage checks.

A scalar set is a `PointSet` of F_q^1: its flat indices are element
indices.  The headline objects are the product set A*A = {a*a'}, its
d-fold sumset A*A + ... + A*A, and the dot-product set {x.y : x, y in E}
of a point set, which is the support of its counts nu; the d-fold sumset
of A*A is the dot-product set of the grid A^d.  Every theorem-style
threshold with a fractional exponent is cleared to an integer-power
comparison (|A|^{2d} > q^{d+1} and friends), because the interesting sets
sit exactly at these boundaries and float powers misclassify them.
"""

from __future__ import annotations

import math

import numpy as np

from .fourier import DENSE_BLOCK_BYTES, row_blocks
from .gf import Field, sqrt_subfield_indices
from .incidence import PointSet, nu

MISSING_REPORT_LIMIT = 32


class BadArityError(ValueError):
    pass


class ArityMismatchError(ValueError):
    pass


class BadEpsilonError(ValueError):
    pass


def _image(a: PointSet, b: PointSet, op) -> PointSet:
    """{op(x, y) : x in A, y in B} for an elementwise field operation op,
    in row blocks of A x B."""
    field = a.field
    sa, sb = a.flat_indices(), b.flat_indices()
    bits = np.zeros(field.q, dtype=bool)
    for rows in row_blocks(len(sa), len(sb)):
        bits[op(sa[rows, None], sb[None, :])] = True
    return PointSet(field, 1, bits)


def pairwise_product_set(a: PointSet, b: PointSet) -> PointSet:
    """{x*y : x in A, y in B}, exact."""
    return _image(a, b, a.field.mul_arrays)


def product_set(a: PointSet) -> PointSet:
    """A*A = {x*y : x, y in A}."""
    return pairwise_product_set(a, a)


def sumset(a: PointSet, b: PointSet) -> PointSet:
    """{x + y : x in A, y in B}, exact field addition of indices."""
    return _image(a, b, a.field.add_arrays)


def iterated_sumset(s: PointSet, d: int) -> PointSet:
    """S + S + ... + S, d copies."""
    if d < 1:
        raise BadArityError(f"need at least one summand, got d={d}")
    out = s
    for _ in range(d - 1):
        out = sumset(out, s)
    return out


def sumset_of_products(a: PointSet, d: int) -> PointSet:
    """The d-fold sumset of the product set: A*A + ... + A*A (d times)."""
    return iterated_sumset(product_set(a), d)


def dot_product_set(e: PointSet) -> PointSet:
    """{x.y : x, y in E}, the support of nu."""
    return PointSet(e.field, 1, nu(e) > 0)


def missing_units(present: np.ndarray) -> list:
    """The nonzero field elements absent from `present`, a membership mask
    or count array over the field (last axis), of one set or of a stack of
    sets in rows: one list, or a list per row, split from one nonzero scan
    of the whole stack."""
    absent = present[..., 1:] == 0
    units = (np.nonzero(absent)[-1] + 1).tolist()
    if present.ndim == 1:
        return units
    ends = np.cumsum(np.count_nonzero(absent, axis=1)).tolist()
    return [units[lo:hi] for lo, hi in zip([0] + ends, ends)]


def scalar_cover_threshold(a: PointSet, d: int) -> bool:
    """|A|^{2d} > q^{d+1}, the exact form of |A| > q^{1/2 + 1/(2d)}.

    Equality is classified as threshold not met.
    """
    if d < 1:
        raise BadArityError(f"need d >= 1, got d={d}")
    return a.count ** (2 * d) > a.field.q ** (d + 1)


def min_threshold_size(q: int, d: int) -> int:
    """The least size of A in 1..q that meets `scalar_cover_threshold` in
    F_q, or q + 1 if none does (d = 1): one past the integer 2d-th root of
    q^{d+1}, estimated in floats and corrected by exact comparisons."""
    bound = q ** (d + 1)
    s = int(q ** ((d + 1) / (2 * d)))
    while s ** (2 * d) > bound:
        s -= 1
    while (s + 1) ** (2 * d) <= bound:
        s += 1
    return s + 1


def point_cover_threshold(e: PointSet):
    """|E|^2 > q^{d+1}, the exact form of |E| > q^{(d+1)/2}: a bool, or
    one per set of a stack."""
    return e.sizes ** 2 > e.field.q ** (e.d + 1)


def _verdict(s: PointSet, threshold_met: bool | None, lhs: int, rhs: int, **extras) -> dict:
    """The report entry of a check whose sumset is S, with the exact witness
    lhs vs rhs."""
    missing = missing_units(s.bits)
    return {
        "set_size": s.count,
        "covers_units": not missing,
        "missing": missing[:MISSING_REPORT_LIMIT],
        "missing_count": len(missing),
        "threshold_met": threshold_met,
        "lhs": lhs,
        "rhs": rhs,
        **extras,
    }


def cover_verdict(a: PointSet, d: int) -> dict:
    """Coverage of the units by the d-fold sumset of A*A, with the exact
    threshold witness |A|^{2d} vs q^{d+1}."""
    s = sumset_of_products(a, d)
    return _verdict(s, scalar_cover_threshold(a, d), a.count ** (2 * d), a.field.q ** (d + 1),
                    input_size=a.count, zero_covered=bool(s.bits[0]))


# The block kernel packs the rows of a block 64 to a word: a set family is
# a q x w uint64 array, bit j of word [x, i] saying whether x lies in the
# set of row 64 i + j.
LANES = 64
# Bytes of the buffers numpy's iterator takes for a broadcast ufunc call.
UFUNC_BUFFER_BYTES = 1 << 16


def dense_block_rows(field: Field, k: int, d: int, rows: int) -> int:
    """Rows of k-subsets per `covers_units_block` call for a batch of
    `rows` subsets, or 0 where the per-set `cover_verdict` path should be
    used instead.

    In units of one product formed by `cover_verdict`, measured (table in
    CHANGES.md): a block call costs 6144 plus half a unit per word
    operation, and it does d q^2 w of them for w = ceil(block / 64) words,
    whatever k is; a set on its own costs 4096 plus its k^2 products plus
    m^2 / 8 per sumset step, m = min(k^2, q) bounding |A*A|.  The block
    runs where it is the cheaper.

    A block is the whole batch, or as many whole words of rows as keep a
    block's arrays under DENSE_BLOCK_BYTES.  The bool presence matrix and
    its packed form take 72 q bytes a word; that also leaves room for the
    packed arrays and one x of the gathered slice (see `_or_of_ands`).
    """
    q = field.q
    words = (DENSE_BLOCK_BYTES - UFUNC_BUFFER_BYTES) // (72 * q)
    block = min(rows, LANES * words)
    if block < 1:
        return 0
    m = min(k * k, q)
    per_set = 4096 + k * k + (d - 1) * m * m // 8
    return block if 6144 + d * q * q * -(-block // LANES) // 2 <= block * per_set else 0


def _or_of_ands(u: np.ndarray, v: np.ndarray, xs: np.ndarray, sol,
                out: np.ndarray) -> None:
    """out[t] |= u[x] & v[sol(x, t)] for every x in xs and every t, on
    q x w word arrays.  sol(xb) gives the len(xb) x q solution indices of
    a block of xs.

    A block's gathered slice, its solution rows and its AND operand take
    8 w + 24 bytes an element.  Beside the five q x w arrays of one
    `covers_units_block` step and the buffers of the broadcast AND, they
    stay under DENSE_BLOCK_BYTES for every block `dense_block_rows` gives.
    """
    q, words = v.shape
    room = DENSE_BLOCK_BYTES - UFUNC_BUFFER_BYTES - 40 * q * words
    step = max(1, room // ((q + 1) * (8 * words + 24)))
    for lo in range(0, len(xs), step):
        xb = xs[lo:lo + step]
        g = np.take(v, sol(xb), axis=0)
        np.bitwise_and(g, u[xb, None, :], out=g)
        out |= np.bitwise_or.reduce(g, axis=0)
        del g  # before the next slice is gathered


def covers_units_block(field: Field, subsets: np.ndarray, d: int) -> np.ndarray:
    """Whether the d-fold sumset of A*A covers the units, for every row A
    of the rows x k index array `subsets`; the same verdict as
    `cover_verdict(A, d)["covers_units"]`.

    The rows are bit-sliced 64 to a uint64 word (see LANES), so every
    step is the word-wide image of two set families under a group table,
    `_or_of_ands`: t lies in X*Y (or X + Y) exactly when some x in X has
    its solution t x^-1 (or t - x) in Y.  The product step runs over the
    units x, and 0 lies in A*A exactly when it lies in A.  Size blocks
    with `dense_block_rows`, which also says where this form pays.
    """
    if d < 1:
        raise BadArityError(f"need at least one summand, got d={d}")
    rows = len(subsets)
    q = field.q
    words = -(-rows // LANES)
    present = np.zeros((q, words * LANES), dtype=bool)
    present[subsets, np.arange(rows)[:, None]] = True
    a = np.packbits(present, axis=1, bitorder="little").view(np.uint64)
    del present

    elems = np.arange(q)
    prods = np.zeros_like(a)
    _or_of_ands(a, a, elems[1:], lambda xb: field.mul_arrays(
        field.inv_table[xb][:, None], elems[None, :]), prods)
    prods[0] = a[0]
    cur = prods
    for _ in range(d - 1):
        nxt = np.zeros_like(a)
        _or_of_ands(cur, prods, elems, lambda xb: field.add_arrays(
            field.neg_table[xb][:, None], elems[None, :]), nxt)
        cur = nxt
    verdict = np.bitwise_and.reduce(cur[1:], axis=0)
    return np.unpackbits(verdict.view(np.uint8), bitorder="little")[:rows].astype(bool)


def dot_set_lower_bound_sides(dot_set_size, max_line, size, q: int, d: int):
    """(lhs, rhs) = (|{x.y}| (M q^d + |E|^2), q |E|^2) of the dot-set lower
    bound lhs >= rhs for origin-free E, M the largest line intersection;
    elementwise, with lhs under 2^52 for every space `geometry` accepts."""
    return dot_set_size * (max_line * q ** d + size ** 2), q * size ** 2


def positive_proportion_check(a: PointSet, d: int) -> dict:
    """Exact check of |dA^2| * (m q^d + m^{2d}) >= q m^{2d} with m = |A \\ {0}|.

    This is the grid specialization of the dot-set lower bound
    (`dot_set_lower_bound_sides`): for E = (A \\ {0})^d every line meets E
    in at most m points.  If 0 is in A it is stripped first (0 contributes
    nothing new to products) and the verdict records that.  The size
    constant and the implied proportion are reported as float diagnostics
    only; the pass/fail is the integer inequality.
    """
    if d < 1:
        raise BadArityError(f"need d >= 1, got d={d}")
    field, q = a.field, a.field.q
    stripped = a.contains_origin
    core = a.strip_origin() if stripped else a
    m = core.count
    s = sumset_of_products(core, d) if m else PointSet.empty(field, 1)
    lhs = s.count * (m * q ** d + m ** (2 * d))
    rhs = q * m ** (2 * d)
    c_size = m ** d / q ** (d / 2 + d / (2 * (2 * d - 1)))
    c_pow = c_size ** (2 - 1 / d)
    return _verdict(s, lhs >= rhs, lhs, rhs, input_size=m, zero_stripped=stripped,
                    c_size=c_size, implied_proportion=c_pow / (c_pow + 1))


def bilinear_cover(a_sets: list[PointSet], b_sets: list[PointSet]) -> dict:
    """Coverage by A_1*B_1 + ... + A_d*B_d, with the size-product ratio.

    The sumset is the dot-product set of the grids A_1 x ... x A_d and
    B_1 x ... x B_d, so the two-set remainder estimate makes
    prod |A_j||B_j| > q^{d+1} sufficient, with constant 1 (Hart, Iosevich,
    Koh and Rudnev, Trans. AMS 363, 2011).  threshold_met stays None, and
    only the ratio prod |A_j||B_j| / q^{d+1} is reported, until the report
    carries that exact comparison.
    """
    if len(a_sets) != len(b_sets) or not a_sets:
        raise ArityMismatchError("need equally many A_j and B_j, at least one pair")
    d = len(a_sets)
    total = None
    size_product = 1
    for aj, bj in zip(a_sets, b_sets):
        term = pairwise_product_set(aj, bj)
        size_product *= aj.count * bj.count
        total = term if total is None else sumset(total, term)
    rhs = a_sets[0].field.q ** (d + 1)
    return _verdict(total, None, size_product, rhs, ratio=size_product / rhs)


def d_for_epsilon(eps) -> tuple[int, int]:
    """Exact rational ceilings: d for full coverage of the units and d for
    a positive proportion, given |A| >= C q^{1/2 + eps}, eps a Fraction or
    anything `Fraction` reads.

    Coverage needs d = ceil(1/(2 eps)); a positive proportion needs
    d = ceil(1/2 + 1/(4 eps)).
    """
    # Imported here: fractions loads decimal, and only d-of-eps reads a
    # rational.
    from fractions import Fraction
    eps = Fraction(eps)
    if not (0 < eps <= Fraction(1, 2)):
        raise BadEpsilonError(f"epsilon must lie in (0, 1/2], got {eps}")
    d_cover = math.ceil(1 / (2 * eps))
    d_proportion = math.ceil(Fraction(1, 2) + 1 / (4 * eps))
    return d_cover, d_proportion


def sqrt_subfield(field: Field) -> PointSet:
    """The subfield of size sqrt(q) as a set of F_q^1 (even degree only)."""
    return PointSet.from_flat(field, 1, sqrt_subfield_indices(field))
