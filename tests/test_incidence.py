import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqcover.fourier import SpectralFn, flat_to_coords
from fqcover.gf import make_field
from fqcover.harness import get_field, stream
from fqcover.incidence import (
    OriginInSetError,
    PointSet,
    ZeroDirectionError,
    hyperplane_hat_identity_check,
    hyperplane_sum,
    line_counts_all,
    line_intersection,
    max_line_intersection,
    nu,
    nu_bruteforce,
    nu_spectral,
    remainder_bound_check,
    remainder_sides,
    rotating_planes_apply,
    second_moment_check,
    second_moment_sides,
)


def nu_oracle(field, d, flats):
    """Pure double loop over ordered pairs, scalar field ops only."""
    counts = [0] * field.q
    pts = [flat_to_coords(field.q, d, f) for f in flats]
    for x in pts:
        for y in pts:
            t = 0
            for i in range(d):
                t = field.add(t, field.mul(x[i], y[i]))
            counts[t] += 1
    return counts


def random_pointset(field, d, size, trial, tag=31):
    rng = stream(2024, trial, size, tag)
    flats = np.sort(rng.choice(field.q ** d, size, replace=False))
    return PointSet.from_flat(field, d, flats)


def test_point_sets_are_equal_by_field_d_and_bits():
    f2, f4 = get_field(2, 1), get_field(2, 2)
    a = PointSet.from_flat(f4, 1, [1, 2])
    assert a == PointSet.from_flat(f4, 1, [2, 1])
    assert a != PointSet.from_flat(f4, 1, [1, 3])
    # Equal bits over another field object, or another field and dimension.
    assert PointSet.full(f4, 1) != PointSet.full(make_field(2, 2), 1)
    assert PointSet.full(f4, 1) != PointSet.full(f2, 2)
    assert a != a.bits


# ---------------------------------------------------------------------------
# nu
# ---------------------------------------------------------------------------

def test_nu_of_full_plane_f3():
    # each x != 0 hits every t exactly q^{d-1} times; x = 0 only feeds t = 0
    field = get_field(3, 1)
    prof = nu_bruteforce(PointSet.full(field, 2))
    assert prof.counts.tolist() == [33, 24, 24]
    assert prof.total == 81
    assert prof.counts.tolist() == nu_oracle(field, 2, range(9))


def test_nu_singleton_and_empty():
    field = get_field(5, 1)
    v = 7  # (2, 1), v.v = 4 + 1 = 0
    prof = nu_bruteforce(PointSet.from_flat(field, 2, [v]))
    assert prof.counts.tolist() == [1, 0, 0, 0, 0]
    assert nu_bruteforce(PointSet.empty(field, 2)).counts.tolist() == [0] * 5
    assert nu_spectral(PointSet.empty(field, 2)).counts.tolist() == [0] * 5


@pytest.mark.parametrize("p,n,d", [(5, 1, 2), (2, 2, 2), (3, 1, 3)])
def test_nu_bruteforce_matches_oracle(p, n, d):
    field = get_field(p, n)
    for trial in range(5):
        size = 1 + trial * (field.q ** d - 1) // 5
        e = random_pointset(field, d, size, trial)
        assert nu_bruteforce(e).counts.tolist() == \
            nu_oracle(field, d, e.flat_indices().tolist())


def test_nu_spectral_agrees_on_50_random_sets_f5():
    field = get_field(5, 1)
    for trial in range(50):
        size = trial % 25 + 1
        e = random_pointset(field, 2, size, trial, tag=32)
        assert np.array_equal(nu_spectral(e).counts, nu_bruteforce(e).counts)


def test_nu_spectral_agrees_exhaustively_on_full_f3():
    field = get_field(3, 1)
    e = PointSet.full(field, 2)
    assert np.array_equal(nu_spectral(e).counts, nu_bruteforce(e).counts)


def test_nu_default_dispatch():
    field = get_field(3, 1)
    e = PointSet.full(field, 2)
    assert np.array_equal(nu(e).counts, nu_bruteforce(e).counts)


@given(st.sets(st.integers(0, 24), max_size=25))
def test_nu_total_is_size_squared(flats):
    field = get_field(5, 1)
    e = PointSet.from_flat(field, 2, sorted(flats)) if flats \
        else PointSet.empty(field, 2)
    assert nu_bruteforce(e).total == e.count ** 2


def test_nu_profile_csv():
    field = get_field(3, 1)
    prof = nu_bruteforce(PointSet.full(field, 2))
    buf = io.StringIO()
    prof.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t_index,nu,r_numerator"
    assert lines[1] == "0,33,18"   # 3*33 - 81
    assert lines[2] == "1,24,-9"


# ---------------------------------------------------------------------------
# remainder bound
# ---------------------------------------------------------------------------

def test_remainder_full_space_exact():
    # full F_q^d: nu(t != 0) = (q^d - 1) q^{d-1}, numerator -q^{d-1} there
    field = get_field(3, 1)
    e = PointSet.full(field, 2)
    rep = remainder_bound_check(e)
    assert rep.ok
    prof = rep.profile
    for t in [1, 2]:
        # R(t) = -q^{d-1} = -3, so the numerator q*R(t) is -9
        assert prof.r_numerator(t) == -9
    assert prof.r_numerator(0) == 3 * 33 - 81
    assert rep.sharpness <= 1


def test_remainder_singleton():
    field = get_field(7, 1)
    rep = remainder_bound_check(PointSet.from_flat(field, 2, [8]))
    assert rep.ok


def test_remainder_empty_set():
    field = get_field(3, 1)
    rep = remainder_bound_check(PointSet.empty(field, 2))
    assert rep.ok and rep.sharpness == 0.0


def test_remainder_holds_on_100_random_sets_f7():
    field = get_field(7, 1)
    for trial in range(100):
        size = trial % 49 + 1
        e = random_pointset(field, 2, size, trial, tag=33)
        rep = remainder_bound_check(e)
        assert rep.ok, f"violation at trial {trial}, t in {rep.violations}"
        assert 0 <= rep.sharpness <= 1


@given(st.sets(st.integers(0, 8), min_size=1, max_size=9))
def test_remainder_bound_property_f3(flats):
    field = get_field(3, 1)
    e = PointSet.from_flat(field, 2, sorted(flats))
    prof = nu_bruteforce(e)
    bound = e.count ** 2 * 3 ** 3
    for t in range(1, 3):
        assert prof.r_numerator(t) ** 2 <= bound


def test_remainder_t_zero_is_genuinely_excluded():
    """The nonzero-t bound does not extend to t = 0; two exact witnesses."""
    # self-orthogonal line in characteristic 2: every pair dots to 0
    f4 = get_field(2, 2)
    iso = PointSet.line(f4, 2, 1 + 4)  # direction (1, 1), (1,1).(1,1) = 0
    prof = nu_bruteforce(iso)
    assert prof.counts.tolist() == [16, 0, 0, 0]
    assert prof.r_numerator(0) ** 2 == 2304
    assert iso.count ** 2 * 4 ** 3 == 1024           # bound overshot at t = 0
    rep = remainder_bound_check(iso)
    assert rep.ok and not rep.zero_dot_within_bound  # t != 0 still fine

    # cross of a line and its perp in F_3^2: off by exactly 1, a case float
    # arithmetic could misclassify
    f3 = get_field(3, 1)
    cross = PointSet.line(f3, 2, 1).union(PointSet.line(f3, 2, 3))
    prof = nu_bruteforce(cross)
    assert cross.count == 5
    assert prof.r_numerator(0) ** 2 == 676
    assert cross.count ** 2 * 3 ** 3 == 675
    rep = remainder_bound_check(cross)
    assert rep.ok and not rep.zero_dot_within_bound


# ---------------------------------------------------------------------------
# rotating planes
# ---------------------------------------------------------------------------

def test_rotating_planes_on_constant():
    field = get_field(3, 1)
    one = SpectralFn.constant(field, 2, 1.0)
    for t in range(3):
        r = rotating_planes_apply(one, t).values
        for x in range(1, 9):
            assert r[x] == pytest.approx(3)  # hyperplane has q^{d-1} points
        if t == 0:
            assert r[0] == pytest.approx(9)
        else:
            assert r[0] == pytest.approx(0)


def test_rotating_planes_nu_consistency():
    field = get_field(5, 1)
    e = random_pointset(field, 2, 9, 0, tag=34)
    prof = nu_bruteforce(e)
    ind = e.indicator()
    for t in range(5):
        r = rotating_planes_apply(ind, t).values
        assert r[e.flat_indices()].sum().real == pytest.approx(int(prof.counts[t]))


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------

def test_line_contains_q_points_and_self_intersects_fully():
    field = get_field(5, 1)
    for y in [1, 7, 13]:
        ln = PointSet.line(field, 2, y)
        assert ln.count == 5
        assert line_intersection(ln, y) == 5


def test_line_intersection_grid_diagonal():
    # E = A x A, direction (1, 1): points (t, t) with t in A
    field = get_field(5, 1)
    a = [1, 2, 4]
    e = PointSet.grid_of_scalars(field, 2, a)
    diag = 1 + 5  # coords (1, 1)
    assert line_intersection(e, diag) == len(a)


def test_line_intersection_empty_and_zero_direction():
    field = get_field(5, 1)
    assert line_intersection(PointSet.empty(field, 2), 3) == 0
    with pytest.raises(ZeroDirectionError):
        line_intersection(PointSet.full(field, 2), 0)
    with pytest.raises(ZeroDirectionError):
        PointSet.line(field, 2, 0)


def test_max_line_examples():
    field = get_field(5, 1)
    grid = PointSet.grid_of_scalars(field, 2, [1, 2])
    m, arg = max_line_intersection(grid)
    assert m == 2
    assert line_intersection(grid, arg) == 2
    ln = PointSet.line(field, 2, 7)
    assert max_line_intersection(ln)[0] == 5
    assert max_line_intersection(PointSet.full(field, 2))[0] == 5
    assert max_line_intersection(PointSet.empty(field, 2)) == (0, None)


def test_max_line_argmax_is_canonical():
    field = get_field(5, 1)
    e = random_pointset(field, 2, 11, 3, tag=35)
    m, arg = max_line_intersection(e)
    counts = line_counts_all(e)
    assert counts[arg] == m
    assert all(counts[k] < m for k in range(1, arg))


# ---------------------------------------------------------------------------
# hyperplane sums and the hat identity
# ---------------------------------------------------------------------------

def test_hyperplane_sum_full_space():
    field = get_field(3, 1)
    f = hyperplane_sum(PointSet.full(field, 2)).values.real
    assert f[0] == 9
    assert all(f[m] == 3 for m in range(1, 9))


def test_hyperplane_sum_singleton():
    field = get_field(3, 1)
    v = 4  # (1, 1)
    f = hyperplane_sum(PointSet.from_flat(field, 2, [v])).values.real
    for m in range(9):
        mc = flat_to_coords(3, 2, m)
        expect = 1.0 if field.add(field.mul(1, mc[0]), field.mul(1, mc[1])) == 0 else 0.0
        assert f[m] == expect


def test_hyperplane_sum_matches_double_loop():
    field = get_field(3, 1)
    e = random_pointset(field, 2, 5, 1, tag=36)
    f = hyperplane_sum(e).values.real
    for m in range(9):
        mc = flat_to_coords(3, 2, m)
        count = 0
        for x in e.flat_indices():
            xc = flat_to_coords(3, 2, int(x))
            t = 0
            for i in range(2):
                t = field.add(t, field.mul(xc[i], mc[i]))
            count += t == 0
        assert f[m] == count


def test_hyperplane_mass_origin_free():
    # each nonzero x solves x.m = 0 for exactly q^{d-1} normals m
    for p, n, d in [(3, 1, 2), (2, 2, 2), (5, 1, 3)]:
        field = get_field(p, n)
        e = random_pointset(field, d, min(8, field.q ** d - 1), 0, tag=37)
        e = e.strip_origin()
        total = hyperplane_sum(e).values.real.sum()
        assert total == e.count * field.q ** (d - 1)


def test_hat_identity_on_punctured_line():
    field = get_field(5, 1)
    e = PointSet.line(field, 2, 7).strip_origin()
    rep = hyperplane_hat_identity_check(e)
    assert rep.ok and rep.max_abs_err <= 1e-8


def test_hat_identity_on_singleton():
    field = get_field(5, 1)
    rep = hyperplane_hat_identity_check(PointSet.from_flat(field, 2, [11]))
    assert rep.ok


def test_hat_identity_on_50_random_origin_free_sets():
    field = get_field(5, 1)
    for trial in range(50):
        size = trial % 20 + 1
        rng = stream(77, trial, size, 38)
        flats = 1 + np.sort(rng.choice(24, size, replace=False))
        rep = hyperplane_hat_identity_check(PointSet.from_flat(field, 2, flats))
        assert rep.ok, f"trial {trial}: err {rep.max_abs_err}"


def test_hat_identity_rejects_origin():
    field = get_field(5, 1)
    with pytest.raises(OriginInSetError):
        hyperplane_hat_identity_check(PointSet.from_flat(field, 2, [0, 3]))


# ---------------------------------------------------------------------------
# second moment
# ---------------------------------------------------------------------------

def test_second_moment_singleton():
    field = get_field(5, 1)
    rep = second_moment_check(PointSet.from_flat(field, 2, [7]))
    assert rep.ok
    assert rep.lhs == 5          # q * sum nu^2 = q
    assert rep.rhs == 5 ** 2 + 1  # 1 * 1 * q^d + 1


def test_second_moment_grid():
    field = get_field(7, 1)
    e = PointSet.grid_of_scalars(field, 2, [1, 2, 3])
    rep = second_moment_check(e)
    assert rep.ok
    assert rep.max_line == 3
    prof = nu_bruteforce(e)
    assert rep.lhs == 7 * sum(int(c) ** 2 for c in prof.counts)


@pytest.mark.parametrize("p,n,d", [(5, 1, 2), (3, 1, 3)])
def test_second_moment_on_100_random_origin_free_sets(p, n, d):
    field = get_field(p, n)
    size_cap = field.q ** d - 1
    for trial in range(100):
        size = trial % min(size_cap, 20) + 1
        rng = stream(88, trial, size, 39)
        flats = 1 + np.sort(rng.choice(size_cap, size, replace=False))
        rep = second_moment_check(PointSet.from_flat(field, d, flats))
        assert rep.ok, f"trial {trial}: {rep.lhs} > {rep.rhs}"


def test_second_moment_sides_stay_exact_past_int64():
    # 3.1e9 ** 2 > 2 ** 63: squared in int64 these counts would wrap around.
    counts = np.array([[3_100_000_000, 5, 0], [7, 3_037_000_500, 1]], dtype=np.int64)
    assert (counts * counts).sum(axis=1).tolist() != [
        sum(int(c) ** 2 for c in row) for row in counts.tolist()]
    size, max_line = np.array([60_000, 55_200]), np.array([40, 3])
    lhs, rhs = second_moment_sides(counts, size, max_line, 3, 2)
    assert lhs.tolist() == [3 * sum(int(c) ** 2 for c in row) for row in counts.tolist()]
    assert rhs.tolist() == [40 * 60_000 ** 2 * 9 + 60_000 ** 4, 3 * 55_200 ** 2 * 9 + 55_200 ** 4]


def test_remainder_sides_match_the_squared_comparison():
    # q = 7, d = 2, |E| = 5: |r| <= B must hold exactly when r^2 <= 25 * 7^3.
    counts = np.arange(40, dtype=np.int64)
    r, bound = remainder_sides(counts, 5, 7, 2)
    assert bound == math.isqrt(25 * 7 ** 3)
    assert r.tolist() == [7 * c - 25 for c in range(40)]
    assert ((np.abs(r) <= bound) == np.array([v * v <= 25 * 7 ** 3 for v in r.tolist()])).all()


def test_second_moment_rejects_origin():
    field = get_field(5, 1)
    with pytest.raises(OriginInSetError):
        second_moment_check(PointSet.from_flat(field, 2, [0, 1]))


# ---------------------------------------------------------------------------
# PointSet plumbing
# ---------------------------------------------------------------------------

def test_pointset_strip_origin_and_count():
    field = get_field(3, 1)
    e = PointSet.from_flat(field, 2, [0, 1, 5])
    assert e.count == 3 and e.contains_origin
    e2 = e.strip_origin()
    assert e2.count == 2 and not e2.contains_origin
    assert e.count == 3  # original untouched


def test_pointset_grid_matches_itertools():
    import itertools
    field = get_field(3, 1)
    a = [0, 2]
    e = PointSet.grid_of_scalars(field, 2, a)
    expect = sorted(x + 3 * y for x, y in itertools.product(a, a))
    assert e.flat_indices().tolist() == expect


def test_perp_hyperplane():
    field = get_field(3, 1)
    h = PointSet.perp_hyperplane(field, 2, 1)  # normal (1, 0)
    assert h.count == 3
    for flat in h.flat_indices():
        assert flat_to_coords(3, 2, int(flat))[0] == 0
