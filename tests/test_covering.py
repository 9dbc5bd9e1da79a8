import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqcover import covering
from fqcover.covering import (
    ArityMismatchError,
    BadArityError,
    BadEpsilonError,
    DENSE_BLOCK_BYTES,
    bilinear_cover,
    cover_verdict,
    covers_units_block,
    d_for_epsilon,
    dense_block_rows,
    dot_product_set,
    dot_set_lower_bound_sides,
    iterated_sumset,
    min_threshold_size,
    missing_units,
    pairwise_product_set,
    point_cover_threshold,
    positive_proportion_check,
    product_set,
    scalar_cover_threshold,
    sqrt_subfield,
    sumset_of_products,
)
from fqcover.harness import SUBSET_CHUNK, get_field
from fqcover.incidence import PointSet, line_counts_all
from numpy_oracle import stream


def dilate(s, c):
    """{c * x : x in S}."""
    return PointSet.from_flat(s.field, 1, s.field.mul_arrays(c, s.flat_indices()))


def scalar_set_oracle_products(field, indices):
    return sorted({field.mul(a, b) for a in indices for b in indices})


def scalar_set_oracle_sums(field, s1, s2):
    return sorted({field.add(a, b) for a in s1 for b in s2})


# ---------------------------------------------------------------------------
# product sets and sumsets
# ---------------------------------------------------------------------------

def test_product_set_examples():
    f5 = get_field(5, 1)
    assert product_set(PointSet.from_flat(f5, 1, [0, 1])).flat_indices().tolist() == [0, 1]
    # 16 products mod 5 land exactly on the units
    a = PointSet.from_flat(f5, 1, [1, 2, 3, 4])
    assert product_set(a).flat_indices().tolist() == [1, 2, 3, 4]
    assert product_set(PointSet.empty(f5, 1)).count == 0


@pytest.mark.parametrize("p,n", [(5, 1), (2, 2), (3, 2), (7, 1)])
def test_product_set_matches_oracle(p, n):
    field = get_field(p, n)
    rng = stream(51, field.q, 0, 41)
    for trial in range(5):
        k = int(rng.integers(1, field.q + 1))
        idx = np.sort(rng.choice(field.q, k, replace=False))
        got = product_set(PointSet.from_flat(field, 1, idx)).flat_indices().tolist()
        assert got == scalar_set_oracle_products(field, idx.tolist())


def test_iterated_sumset_examples():
    f5 = get_field(5, 1)
    s = PointSet.from_flat(f5, 1, [1, 2, 3, 4])
    assert iterated_sumset(s, 1) == s
    assert iterated_sumset(s, 2).flat_indices().tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(BadArityError):
        iterated_sumset(s, 0)


def test_threshold_block_and_proportion_refuse_d_0():
    field = get_field(5, 1)
    a = PointSet.from_flat(field, 1, [1, 2, 3])
    with pytest.raises(BadArityError):
        scalar_cover_threshold(a, 0)
    with pytest.raises(BadArityError):
        covers_units_block(field, np.array([[1, 2, 3]]), 0)
    with pytest.raises(BadArityError):
        positive_proportion_check(a, 0)


def test_sumset_closed_subfield_gf4():
    f4 = get_field(2, 2)
    f2 = PointSet.from_flat(f4, 1, [0, 1])
    for d in range(1, 7):
        assert iterated_sumset(f2, d) == f2


def test_sumset_extension_field_is_field_addition():
    # index arithmetic is not integer arithmetic for n > 1
    f4 = get_field(2, 2)
    s = PointSet.from_flat(f4, 1, [2, 3])  # omega, omega + 1
    got = iterated_sumset(s, 2).flat_indices().tolist()
    assert got == scalar_set_oracle_sums(f4, [2, 3], [2, 3])
    assert 1 in got  # omega + (omega + 1) = 1


def test_sumset_of_products_examples():
    f5 = get_field(5, 1)
    assert sumset_of_products(PointSet.full(f5, 1), 3) == PointSet.full(f5, 1)
    a = PointSet.from_flat(f5, 1, [1, 2, 3, 4])
    assert sumset_of_products(a, 2).flat_indices().tolist() == [0, 1, 2, 3, 4]
    f9 = get_field(3, 2)
    f3 = PointSet.from_flat(f9, 1, [0, 1, 2])
    assert sumset_of_products(f3, 3) == f3
    assert missing_units(sumset_of_products(f3, 3).bits)


# ---------------------------------------------------------------------------
# dot product sets
# ---------------------------------------------------------------------------

def test_dot_product_set_examples():
    f3 = get_field(3, 1)
    assert dot_product_set(PointSet.full(f3, 2)).flat_indices().tolist() == [0, 1, 2]
    f5 = get_field(5, 1)
    v = 7  # (2, 1): v.v = 0
    assert dot_product_set(PointSet.from_flat(f5, 2, [v])).flat_indices().tolist() == [0]


@pytest.mark.parametrize("d", [2, 3])
def test_grid_dot_set_equals_sumset_of_products(d):
    for p, n in [(5, 1), (7, 1), (2, 2), (3, 2)]:
        field = get_field(p, n)
        rng = stream(61, field.q, d, 42)
        for trial in range(5):
            k = int(rng.integers(1, min(field.q, 5 if d == 3 else 8) + 1))
            idx = np.sort(rng.choice(field.q, k, replace=False))
            a = PointSet.from_flat(field, 1, idx)
            grid = PointSet.grid_of_scalars(field, d, idx)
            assert dot_product_set(grid) == sumset_of_products(a, d)


@given(st.sets(st.integers(0, 6), min_size=1, max_size=7))
def test_grid_dot_set_equals_sumset_property_f7(indices):
    field = get_field(7, 1)
    a = PointSet.from_flat(field, 1, sorted(indices))
    grid = PointSet.grid_of_scalars(field, 2, sorted(indices))
    assert dot_product_set(grid) == sumset_of_products(a, 2)


# ---------------------------------------------------------------------------
# coverage and thresholds
# ---------------------------------------------------------------------------

def test_missing_units_of_one_set():
    f5 = get_field(5, 1)
    assert missing_units(PointSet.full(f5, 1).bits) == []
    assert missing_units(PointSet.from_flat(f5, 1, [0, 2, 3, 4]).bits) == [1]
    assert missing_units(PointSet.empty(f5, 1).bits) == [1, 2, 3, 4]


def test_missing_units_per_row_of_counts():
    # nu-style counts, one set's row at a time: entry 0 never counts as
    # missing, and at most the first 32 missing units are listed.
    counts = np.array([[0, 3, 0, 1, 2], [7, 1, 1, 1, 1], [0, 0, 0, 0, 0]])
    assert [missing_units(row) for row in counts] == [[2], [], [1, 2, 3, 4]]
    assert [missing_units(row > 0) for row in counts] == [missing_units(row) for row in counts]
    wide = np.zeros(41, dtype=np.int64)
    wide[[0, 5, 36]] = 1
    assert missing_units(wide) == [u for u in range(1, 41) if u not in (5, 36)][:32]
    assert missing_units(wide)[-1] == 33


def test_scalar_cover_threshold_exact_integers():
    f5 = get_field(5, 1)
    assert scalar_cover_threshold(PointSet.from_flat(f5, 1, [1, 2, 3, 4]), 2)
    assert not scalar_cover_threshold(PointSet.from_flat(f5, 1, [1, 2, 3]), 2)
    assert scalar_cover_threshold(PointSet.full(f5, 1), 2)
    # exact equality |A|^{2d} = q^{d+1} counts as not met: q = 4, d = 1, |A| = 4
    f4 = get_field(2, 2)
    assert 4 ** 2 == 4 ** 2
    assert not scalar_cover_threshold(PointSet.full(f4, 1), 1)


def _threshold_scan(q, d):
    """The least s in 1..q with s^{2d} > q^{d+1}, or q + 1, by scanning."""
    s = 1
    while s <= q and s ** (2 * d) <= q ** (d + 1):
        s += 1
    return s


def _prime_powers(top):
    primes = [p for p in range(2, top + 1) if all(p % r for r in range(2, math.isqrt(p) + 1))]
    return sorted(p ** n for p in primes for n in range(1, top.bit_length())
                  if p ** n <= top)


def test_min_threshold_size_matches_the_scan():
    for q in _prime_powers(4096):
        for d in range(1, 7):
            assert min_threshold_size(q, d) == _threshold_scan(q, d), (q, d)
    for q in (2 ** 18, 2 ** 20, 3 ** 12):
        for d in range(1, 5):
            assert min_threshold_size(q, d) == _threshold_scan(q, d), (q, d)
    # Exact powers: at q = 16, 81 and 256 (d = 2) the sizes 8, 27 and 64
    # reach q^3 exactly, which is not above it.
    assert [min_threshold_size(q, 2) for q in (16, 81, 256)] == [9, 28, 65]
    assert min_threshold_size(4096, 1) == 4097


def test_point_cover_threshold():
    f3 = get_field(3, 1)
    rng = stream(71, 0, 0, 43)
    six = PointSet.from_flat(f3, 2, np.sort(rng.choice(9, 6, replace=False)))
    five = PointSet.from_flat(f3, 2, np.sort(rng.choice(9, 5, replace=False)))
    assert point_cover_threshold(six)        # 36 > 27
    assert not point_cover_threshold(five)   # 25 < 27
    assert point_cover_threshold(PointSet.full(f3, 2))
    # One verdict per set of a stack of several sizes.
    stack = PointSet(f3, 2, np.stack([five.bits, six.bits, PointSet.empty(f3, 2).bits]))
    assert point_cover_threshold(stack).tolist() == [False, True, False]


def test_cover_verdict_fields():
    f5 = get_field(5, 1)
    v = cover_verdict(PointSet.from_flat(f5, 1, [1, 2, 3, 4]), 2)
    assert v["covers_units"] and v["threshold_met"]
    assert v["lhs"] == 4 ** 4 and v["rhs"] == 5 ** 3
    assert v["missing"] == []
    assert v["set_size"] == 5 and v["missing_count"] == 0


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

def dot_set_bound(e):
    """(|{x.y}|, M, lhs, rhs) of the dot-set lower bound on one set."""
    dots = dot_product_set(e).count
    max_line = int(line_counts_all(e)[1:].max())
    return (dots, max_line,
            *dot_set_lower_bound_sides(dots, max_line, e.count, e.field.q, e.d))


def test_dot_set_lower_bound_grid():
    f7 = get_field(7, 1)
    e = PointSet.grid_of_scalars(f7, 2, [1, 2, 3])
    dots, max_line, lhs, rhs = dot_set_bound(e)
    assert lhs >= rhs
    assert lhs == dots * (max_line * 49 + 81)
    assert rhs == 7 * 81


def test_dot_set_lower_bound_punctured_line():
    f5 = get_field(5, 1)
    e = PointSet.line(f5, 2, 6).strip_origin()
    _, _, lhs, rhs = dot_set_bound(e)
    assert lhs >= rhs


def test_dot_set_lower_bound_singleton():
    f5 = get_field(5, 1)
    dots, max_line, lhs, rhs = dot_set_bound(PointSet.from_flat(f5, 2, [8]))
    assert dots == 1 and max_line == 1
    assert lhs == 5 ** 2 + 1 and rhs == 5
    assert lhs >= rhs


def test_positive_proportion_examples():
    f5 = get_field(5, 1)
    v = positive_proportion_check(PointSet.from_flat(f5, 1, [1, 2, 3, 4]), 2)
    assert v["threshold_met"] and v["set_size"] == 5
    assert v["lhs"] == 5 * (4 * 25 + 4 ** 4) and v["rhs"] == 5 * 4 ** 4
    single = positive_proportion_check(PointSet.from_flat(f5, 1, [1]), 2)
    assert single["threshold_met"] and single["set_size"] == 1
    assert 0 < v["implied_proportion"] < 1


def test_positive_proportion_strips_zero():
    f5 = get_field(5, 1)
    with_zero = positive_proportion_check(PointSet.from_flat(f5, 1, [0, 1, 2, 3, 4]), 2)
    without = positive_proportion_check(PointSet.from_flat(f5, 1, [1, 2, 3, 4]), 2)
    assert with_zero["zero_stripped"]
    assert not without["zero_stripped"]
    assert with_zero["lhs"] == without["lhs"] and with_zero["rhs"] == without["rhs"]


def test_positive_proportion_prime_subfield_of_p2():
    f9 = get_field(3, 2)
    v = positive_proportion_check(PointSet.from_flat(f9, 1, [1, 2]), 2)
    assert isinstance(v["c_size"], float)
    assert v["threshold_met"]  # the exact inequality is unconditional


# ---------------------------------------------------------------------------
# bilinear coverage
# ---------------------------------------------------------------------------

def test_bilinear_full_sets():
    f5 = get_field(5, 1)
    full = PointSet.full(f5, 1)
    v = bilinear_cover([full, full], [full, full])
    assert v["covers_units"]
    assert v["ratio"] == pytest.approx(5.0)  # q^{d-1}


def test_bilinear_matches_sumset_of_products():
    f5 = get_field(5, 1)
    a = PointSet.from_flat(f5, 1, [1, 2, 3, 4])
    v = bilinear_cover([a, a], [a, a])
    assert v["covers_units"]
    assert v["ratio"] == pytest.approx(4 ** 4 / 5 ** 3)


def test_bilinear_annihilator():
    f5 = get_field(5, 1)
    zero = PointSet.from_flat(f5, 1, [0])
    full = PointSet.full(f5, 1)
    v = bilinear_cover([zero], [full])
    assert not v["covers_units"] and v["set_size"] == 1
    # a second full term restores coverage
    v2 = bilinear_cover([zero, full], [full, full])
    assert v2["covers_units"]


def test_bilinear_arity_mismatch():
    f5 = get_field(5, 1)
    full = PointSet.full(f5, 1)
    with pytest.raises(ArityMismatchError):
        bilinear_cover([full, full], [full])
    with pytest.raises(ArityMismatchError):
        bilinear_cover([], [])


# ---------------------------------------------------------------------------
# d(eps)
# ---------------------------------------------------------------------------

def test_d_for_epsilon_exact():
    assert d_for_epsilon(Fraction(1, 4)) == (2, 2)
    assert d_for_epsilon(Fraction(1, 2)) == (1, 1)
    assert d_for_epsilon(Fraction(1, 10)) == (5, 3)
    with pytest.raises(BadEpsilonError):
        d_for_epsilon(Fraction(0))
    with pytest.raises(BadEpsilonError):
        d_for_epsilon(Fraction(3, 4))


@given(st.integers(1, 200), st.integers(1, 400))
def test_d_for_epsilon_rational_ceilings(num, den):
    eps = Fraction(num, den)
    if not 0 < eps <= Fraction(1, 2):
        with pytest.raises(BadEpsilonError):
            d_for_epsilon(eps)
        return
    d_cover, d_prop = d_for_epsilon(eps)
    assert d_cover - 1 < 1 / (2 * eps) <= d_cover
    assert d_prop - 1 < Fraction(1, 2) + 1 / (4 * eps) <= d_prop


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

@given(st.sets(st.integers(0, 6), min_size=1, max_size=7),
       st.sets(st.integers(0, 6), max_size=3))
def test_monotonicity_f7(base, extra):
    field = get_field(7, 1)
    a = PointSet.from_flat(field, 1, sorted(base))
    a_big = PointSet.from_flat(field, 1, sorted(base | extra))
    small = sumset_of_products(a, 2)
    big = sumset_of_products(a_big, 2)
    assert np.all(big.bits[small.bits])


@given(st.sets(st.integers(0, 8), min_size=1, max_size=9),
       st.integers(1, 8))
def test_dilation_covariance_f9(indices, c):
    # (cA)^2 + ... = c^2 (A^2 + ...)
    field = get_field(3, 2)
    a = PointSet.from_flat(field, 1, sorted(indices))
    lhs = sumset_of_products(dilate(a, c), 2)
    c2 = field.mul(c, c)
    rhs = PointSet.from_flat(
        field, 1, field.mul_arrays(c2, sumset_of_products(a, 2).flat_indices()))
    assert lhs == rhs


def test_sqrt_subfield_wrapper():
    f9 = get_field(3, 2)
    assert sqrt_subfield(f9).flat_indices().tolist() == [0, 1, 2]


def test_exhaustive_theorem_check_tiny():
    # q = 3, d = 2: the only admitted size is 3 and A = F_3 covers
    f3 = get_field(3, 1)
    admitted = [s for s in range(4) if s ** 4 > 27]
    assert admitted == [3]
    for combo in itertools.combinations(range(3), 3):
        v = cover_verdict(PointSet.from_flat(f3, 1, combo), 2)
        assert v["threshold_met"] and v["covers_units"]


def test_pairwise_product_set_oracle():
    f4 = get_field(2, 2)
    a = PointSet.from_flat(f4, 1, [1, 2])
    b = PointSet.from_flat(f4, 1, [2, 3])
    got = pairwise_product_set(a, b).flat_indices().tolist()
    expect = sorted({f4.mul(x, y) for x in [1, 2] for y in [2, 3]})
    assert got == expect


# ---------------------------------------------------------------------------
# block verdict kernel
# ---------------------------------------------------------------------------

# Prime fields, GF(2^m) (additions by xor) and odd extensions (additions
# through the add table), up to q = 128 at every d.
BLOCK_FIELDS = [(5, 1), (13, 1), (17, 1), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2),
                (101, 1), (3, 4), (2, 7)]


@given(st.sampled_from(BLOCK_FIELDS), st.integers(1, 3), st.data())
def test_block_verdict_matches_cover_verdict(pn, d, data):
    field = get_field(*pn)
    q = field.q
    k = data.draw(st.integers(1, q))
    # Up to 130 rows, so that a block can spill into a third 64-lane word.
    rows = data.draw(st.integers(1, 130))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    subsets = np.array([np.sort(rng.choice(q, k, replace=False)) for _ in range(rows)])
    expect = [cover_verdict(PointSet.from_flat(field, 1, a), d)["covers_units"]
              for a in subsets]
    assert covers_units_block(field, subsets, d).tolist() == expect


@pytest.mark.parametrize("pn", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_block_verdict_matches_cover_verdict_on_every_subset_of_a_small_field(pn):
    # Every x of a step counts here: in F_2, {1} covers the units only
    # through the product 1*1.
    field = get_field(*pn)
    q = field.q
    for k in range(1, q + 1):
        subsets = np.array(list(itertools.combinations(range(q), k)), dtype=np.int64)
        for d in (1, 2, 3):
            expect = [cover_verdict(PointSet.from_flat(field, 1, a), d)["covers_units"]
                      for a in subsets]
            assert covers_units_block(field, subsets, d).tolist() == expect


@pytest.mark.parametrize("op", ["mul", "add"])
def test_word_image_matches_the_set_image_across_x_blocks(op):
    # At q = 101 with 8 words a step takes its x in several blocks; each of
    # the 512 lanes must hold its own image {x*y} or {x + y} with x in U
    # (units only for products) and y in V.  The sets are sparse (about 3
    # and 13 elements a lane), so that a lost x shows in the image.
    field = get_field(101, 1)
    q = field.q
    rng = np.random.default_rng(5)
    words = lambda n: np.bitwise_and.reduce(
        rng.integers(0, 1 << 64, (n, q, 8), dtype=np.uint64), axis=0)
    u, v = words(5), words(3)
    elems = np.arange(q)
    if op == "mul":
        xs, inv = elems[1:], field.inv_table
        sol = lambda xb: field.mul_arrays(inv[xb][:, None], elems[None, :])
        image = lambda x, y: x * y % q
    else:
        xs, neg = elems, field.neg_table
        sol = lambda xb: field.add_arrays(neg[xb][:, None], elems[None, :])
        image = lambda x, y: (x + y) % q
    out = np.zeros_like(u)
    covering._or_of_ands(u, v, xs, sol, out)
    bits = lambda w: np.unpackbits(w.view(np.uint8), axis=1, bitorder="little").astype(bool)
    ub, vb = bits(u), bits(v)
    expect = np.zeros_like(ub)
    for x in xs:
        for y in range(q):
            expect[image(x, y)] |= ub[x] & vb[y]
    assert np.array_equal(bits(out), expect)


def test_block_verdict_sees_non_covering_rows():
    # The subfield F_3 = {0, 1, 2} of F_9 is closed under products and sums,
    # so it never covers.
    f9 = get_field(3, 2)
    subsets = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 4]], dtype=np.int64)
    for d in (1, 2, 3):
        expect = [cover_verdict(PointSet.from_flat(f9, 1, a), d)["covers_units"]
                  for a in subsets]
        assert covers_units_block(f9, subsets, d).tolist() == expect
        assert expect[0] is False


def test_product_set_peak_memory_stays_near_the_cap():
    field = get_field(2, 12)
    a = PointSet.from_flat(
        field, 1, np.random.default_rng(3).choice(field.q, 2000, replace=False))
    expect = product_set(a)  # warm the field's caches
    tracemalloc.start()
    try:
        got = product_set(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expect
    # One unblocked 2000 x 2000 int64 array alone would be 32 MB, 122 caps.
    assert peak <= 2 * DENSE_BLOCK_BYTES


def test_dense_block_rows_follows_the_measured_crossover():
    # A batch goes to the block kernel, in whole 64-row words; a lone set
    # stays per set, since a block call costs more than one small verdict.
    f17 = get_field(17, 1)
    assert dense_block_rows(f17, 9, 2, 2048) == 2048
    assert dense_block_rows(f17, 9, 2, 1) == 0
    assert dense_block_rows(get_field(101, 1), 33, 2, 2048) % 64 == 0
    # At q = 1024 the block's d q^2 word operations lose to a few products
    # per set, and win once the sumsets fill the field.
    f1024 = get_field(2, 10)
    assert dense_block_rows(f1024, 3, 1, 256) == 0
    assert dense_block_rows(f1024, 32, 2, 256) > 0
    # At q = 4096 a single word of rows would not fit under the cap.
    f4096 = get_field(2, 12)
    assert dense_block_rows(f4096, 513, 2, 5) == 0
    assert dense_block_rows(f4096, 64, 2, 2048) == 0


@pytest.mark.parametrize("p,n,k,d", [(2, 1, 2, 1), (17, 1, 5, 2), (17, 1, 17, 2),
                                     (3, 3, 27, 3), (31, 1, 20, 1), (101, 1, 11, 1),
                                     (101, 1, 33, 2), (3, 4, 20, 3), (2, 7, 40, 2)])
def test_dense_block_stays_under_the_byte_cap(p, n, k, d):
    field = get_field(p, n)
    rows = dense_block_rows(field, k, d, SUBSET_CHUNK)
    assert rows > 0
    rng = stream(7, field.q, k, 43)
    subsets = np.array([np.sort(rng.choice(field.q, k, replace=False))
                        for _ in range(rows)])
    tracemalloc.start()
    try:
        covers_units_block(field, subsets, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DENSE_BLOCK_BYTES
