"""The blocked point kernel of `fourier` and the incidence counts built on it.

Every blocked count is compared with a Python-integer oracle built from the
scalar `field.add` and `field.mul`, with the byte cap patched down so that
each kernel runs in many one-row blocks.  The kernels themselves work
coordinate by coordinate on every space and under every cap, and keep no
table; their field-array calls are counted.  q = 4, 5 and 9 cover the XOR,
prime and add-table paths of `Field.add_arrays`.  Stacks of sets, some
holding the origin, are checked set by set against the same oracles, and
their geometry verdicts against the paper's inequalities in Python integers;
stacks of sets of several sizes against the counts of each set alone.  On
every space where `incidence` keeps point tables (q^d <= 128 at the default
cap) nu, the hyperplane sums and the difference counts are contractions of
membership bits; there they are checked against the pair kernels, forced by
a cap just below the tables, and against Python-integer counts.  The line
counts read the direction table on every space, which is checked against
its defining properties on both sides of the cap.
"""

import tracemalloc

import numpy as np
import pytest

import fqcover.fourier as fourier
import fqcover.geometry as geometry
import fqcover.incidence as incidence
from fqcover.fourier import (
    DENSE_BLOCK_BYTES,
    coords_to_flat,
    dot,
    flat_to_coords,
    fourier_forward_direct,
    point_add,
    point_dot,
    point_scale,
    row_blocks,
)
from fqcover.gf import is_prime
from fqcover.harness import get_field
from fqcover.incidence import (
    PointSet,
    difference_counts,
    hyperplane_sum,
    line_counts_all,
    nu,
    nu_bruteforce,
    nu_spectral,
)
from numpy_oracle import stream

SPACES = [(2, 2, 2), (2, 2, 3), (5, 1, 2), (5, 1, 3), (3, 2, 2), (3, 2, 3)]


def random_flats(q, d, size, trial):
    return np.sort(stream(77, trial, size, 5).choice(q ** d, size, replace=False))


def scale(field, d, s, flat):
    q = field.q
    return coords_to_flat(q, [field.mul(s, c) for c in flat_to_coords(q, d, flat)])


def translate(field, d, x, y):
    q = field.q
    return coords_to_flat(q, [field.add(a, b) for a, b in
                              zip(flat_to_coords(q, d, x), flat_to_coords(q, d, y))])


def fdot(field, d, x, y):
    return dot(field, flat_to_coords(field.q, d, x), flat_to_coords(field.q, d, y))


def differences(field, d, flats):
    """D(m) = #{(x, y) : x - y = m} over pairs of the flats, by a double loop."""
    out = [0] * field.q ** d
    for x in flats:
        for y in flats:
            out[translate(field, d, x, scale(field, d, field.neg(1), y))] += 1
    return out


@pytest.fixture
def one_row_blocks(monkeypatch):
    monkeypatch.setattr(fourier, "DENSE_BLOCK_BYTES", 1)
    assert row_blocks(7, 3) == [slice(i, i + 1) for i in range(7)]


def count_field_calls(monkeypatch, field):
    """Count the calls of the field's add_arrays and mul_arrays."""
    calls = {"add_arrays": 0, "mul_arrays": 0}
    for name in calls:
        def counted(self, a, b, op=getattr(type(field), name), name=name):
            calls[name] += 1
            return op(self, a, b)
        monkeypatch.setattr(type(field), name, counted)
    return calls


def tabled(field, d):
    """Whether `incidence` counts on F_q^d from point tables: the q^d x q^d
    pair grid fits one row block."""
    return len(row_blocks(field.q ** d, field.q ** d)) == 1


def check_kernels_against_scalar_ops(monkeypatch, p, n, d):
    """point_dot, point_add and point_scale against the scalar field ops,
    with the field-array calls of a second round counted: d multiplications
    and d - 1 additions per dot product, d additions per sum and d
    multiplications per scaling.  Neither round adds a table to the field."""
    field = get_field(p, n)
    cached = set(field._coords_cache)
    q = field.q
    x = random_flats(q, d, 12, 0)
    y = random_flats(q, d, 9, 1)
    s = np.arange(q)

    def kernels():
        return (point_dot(field, d, x[:, None], y), point_add(field, d, x[:, None], y),
                point_scale(field, d, x[:, None], s))

    first = kernels()
    with monkeypatch.context() as m:
        calls = count_field_calls(m, field)
        dots, sums, scaled = kernels()
    for a, b in zip(first, (dots, sums, scaled)):
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
    for i, a in enumerate(x.tolist()):
        assert dots[i].tolist() == [fdot(field, d, a, b) for b in y.tolist()]
        assert sums[i].tolist() == [translate(field, d, a, b) for b in y.tolist()]
        assert scaled[i].tolist() == [scale(field, d, t, a) for t in range(q)]
    assert calls == {"add_arrays": 2 * d - 1, "mul_arrays": 2 * d}
    assert set(field._coords_cache) == cached


@pytest.mark.parametrize("p,n,d", SPACES)
def test_kernel_matches_scalar_field_ops(monkeypatch, p, n, d):
    """At the default cap the kernels work coordinate by coordinate, on the
    spaces up to q^d = 128 where `incidence` keeps point tables too."""
    check_kernels_against_scalar_ops(monkeypatch, p, n, d)


@pytest.mark.parametrize("p,n,d", SPACES)
def test_kernel_matches_scalar_field_ops_in_one_row_blocks(one_row_blocks, monkeypatch,
                                                           p, n, d):
    """Under a one-byte cap no space has point tables."""
    assert not tabled(get_field(p, n), d)
    check_kernels_against_scalar_ops(monkeypatch, p, n, d)


@pytest.mark.parametrize("p,n,d", SPACES)
def test_blocked_counts_match_integer_oracles(one_row_blocks, p, n, d):
    field = get_field(p, n)
    q, size = field.q, field.q ** d
    flats = random_flats(q, d, min(size // 3, 40), 2).tolist()
    e = PointSet.from_flat(field, d, flats)

    nu_ref = [0] * q
    for x in flats:
        for y in flats:
            nu_ref[fdot(field, d, x, y)] += 1
    assert nu_bruteforce(e).tolist() == nu_ref
    # nu_spectral's s-sums run through the kernel in one-row blocks too.
    assert nu_spectral(e).tolist() == nu_ref

    assert hyperplane_sum(e).tolist() == [
        sum(fdot(field, d, x, m) == 0 for x in flats) for m in range(size)]
    assert line_counts_all(e).tolist() == [
        sum(e.bits[scale(field, d, t, k)] for t in range(q)) for k in range(size)]

    assert difference_counts(e).tolist() == differences(field, d, flats)


def count_calls(monkeypatch, field, d, flats):
    """Per count of the set of flats, its field-array calls and the row
    blocks of its pair grid: the hyperplane sums pair the set with the
    origin and the (q^d - 1)/(q - 1) directions."""
    e = PointSet.from_flat(field, d, flats)
    lines = 1 + (field.q ** d - 1) // (field.q - 1)
    grids = {nu_bruteforce: (e.count, e.count), hyperplane_sum: (lines, e.count),
             line_counts_all: (field.q ** d, field.q), difference_counts: (e.count, e.count)}
    out = {}
    for fn, (rows, cols) in grids.items():
        fn(e)  # builds the field's point and direction tables
        with monkeypatch.context() as m:
            calls = count_field_calls(m, field)
            fn(e)
        out[fn.__name__] = (calls, len(row_blocks(rows, cols)))
    return out


@pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 2, 2), (3, 2, 3),
                                   (2, 1, 7), (11, 1, 2), (2, 1, 8), (13, 1, 2)])
def test_kernel_calls_do_not_grow_with_the_set(monkeypatch, p, n, d):
    """With the tables of F_4^3, F_9^2, F_2^7 and F_11^2 (q^d <= 128), no
    field-array call at all.  On F_9^3, F_2^8 and F_13^2, per row block,
    d multiplications and d - 1 additions for the dot products of nu and
    the hyperplane sums, and d additions for the differences, which negate
    every point of the set once, by d multiplications.  The line counts
    read the direction table and make no call on any space."""
    field = get_field(p, n)
    assert tabled(field, d) == (p ** (n * d) <= 128)
    for size in (5, 40):
        got = count_calls(monkeypatch, field, d, random_flats(field.q, d, size, 3))
        for name, (calls, blocks) in got.items():
            if tabled(field, d) or name == "line_counts_all":
                assert calls == {"add_arrays": 0, "mul_arrays": 0}, name
            elif name == "difference_counts":
                assert calls == {"add_arrays": d * blocks, "mul_arrays": d}, name
            else:
                assert calls == {"add_arrays": (d - 1) * blocks, "mul_arrays": d * blocks}, name


def test_patched_cap_leaves_the_tables_of_a_field(monkeypatch):
    """A cap patched to 1 after F_9^2 has its tables sends nu, the hyperplane
    sums and the difference counts back to the pair kernels, with the same
    counts; the line counts keep reading the direction table."""
    field = get_field(3, 2)
    flats = random_flats(9, 2, 20, 5)
    before = count_calls(monkeypatch, field, 2, flats)
    assert (2, "levels") in field._coords_cache
    assert all(calls["mul_arrays"] == 0 for calls, _ in before.values())
    e = PointSet.from_flat(field, 2, flats)
    kernels = (nu_bruteforce, hyperplane_sum, line_counts_all, difference_counts)
    want = [fn(e) for fn in kernels]
    monkeypatch.setattr(fourier, "DENSE_BLOCK_BYTES", 1)
    for name, (calls, blocks) in count_calls(monkeypatch, field, 2, flats).items():
        muls = {"line_counts_all": 0, "difference_counts": 2}.get(name, 2 * blocks)
        assert blocks > 1 and calls["mul_arrays"] == muls, name
    got = [fn(e) for fn in kernels]
    assert all(np.array_equal(a, b) for a, b in zip(want, got))


@pytest.mark.parametrize("p,n,d", [(2, 1, 7), (3, 2, 2), (13, 1, 2), (2, 1, 8)])
def test_direction_table_names_each_line_once(p, n, d):
    """j(c x) = j(x) for every unit c, j(j(x)) = j(x), and one value of j
    per line through the origin, (q^d - 1)/(q - 1) of them, on F_2^7 and
    F_9^2, which have point tables, and on F_13^2 and F_2^8, which do not."""
    field = get_field(p, n)
    q, size = field.q, field.q ** d
    assert tabled(field, d) == (size <= 128)
    j = incidence._directions(field, d).tolist()
    assert j[0] == 0
    for x in range(1, size):
        assert {j[scale(field, d, c, x)] for c in range(1, q)} == {j[x]}
        assert j[j[x]] == j[x]
    assert len(set(j[1:])) == (size - 1) // (q - 1)


@pytest.mark.parametrize("fn", [nu_bruteforce, hyperplane_sum, difference_counts])
def test_blocked_kernel_peak_memory_stays_near_the_cap(fn):
    field = get_field(101, 1)
    e = PointSet.from_flat(field, 2, random_flats(101, 2, 2000, 4))
    fn(e)  # warm the field's caches
    tracemalloc.start()
    try:
        fn(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One unblocked 2000 x 2000 int64 array alone would be 32 MB, 122 caps.
    assert peak <= 4 * DENSE_BLOCK_BYTES


# Every space with point tables at the default cap: q^d <= 128.
TABLE_SPACES = sorted(
    {(2, 1, d) for d in range(1, 8)} | {(3, 1, d) for d in range(1, 5)}
    | {(2, 2, d) for d in range(1, 4)} | {(5, 1, d) for d in range(1, 4)}
    | {(7, 1, 2), (2, 3, 2), (3, 2, 2), (11, 1, 2)}
    | {(p, n, 1) for p in range(2, 128) if is_prime(p)
       for n in range(1, 8) if p ** n <= 128})


def table_stack(field, d):
    """A stack of F_q^d: the empty set, the origin alone, one other point,
    sets of about a third and a half of the space with and without the
    origin, the space without the origin, and the full set."""
    universe = field.q ** d
    sizes = [(0, False), (1, True), (1, False), (universe // 3 + 1, True),
             (universe // 3, False), (universe // 2 + 1, True), (universe - 1, False),
             (universe, True)]
    bits = np.zeros((len(sizes), universe), dtype=bool)
    for r, (k, origin) in enumerate(sizes):
        rng = stream(83, r, k, 11)
        bits[r, 1 + rng.choice(universe - 1, k - origin, replace=False)] = True
        bits[r, 0] = origin
    return PointSet(field, d, bits)


def integer_counts(field, d, flats):
    """nu, the hyperplane sums, the line counts (entry 0 included) and the
    difference counts of each set of flats, in Python integers, from tables
    of F_q^d built point by point with the scalar `dot`, `field.add` and
    `scale`."""
    q, points = field.q, range(field.q ** d)
    coords = [flat_to_coords(q, d, x) for x in points]
    dots = [[dot(field, cx, cy) for cy in coords] for cx in coords]
    sums = [[coords_to_flat(q, map(field.add, cx, cy)) for cy in coords] for cx in coords]
    scaled = [[scale(field, d, t, x) for t in range(q)] for x in points]
    minus = [scale(field, d, field.neg(1), y) for y in points]
    nus, hsums, lines, diffs = [], [], [], []
    for row in flats:
        members, nu_ref, diff = set(row), [0] * q, [0] * len(points)
        for x in row:
            for y in row:
                nu_ref[dots[x][y]] += 1
                diff[sums[x][minus[y]]] += 1
        nus.append(nu_ref)
        hsums.append([sum(dots[x][m] == 0 for x in row) for m in points])
        lines.append([sum(s in members for s in scaled[k]) for k in points])
        diffs.append(diff)
    return nus, hsums, lines, diffs


@pytest.mark.parametrize("p,n,d", TABLE_SPACES)
def test_table_counts_match_gather_kernels_and_integer_oracles(monkeypatch, p, n, d):
    """On every space with point tables, the four counts of a mixed stack
    from the tables (built first; then no point kernel is called), by the
    pair and gather kernels under a cap just below the tables, and per set
    in Python integers agree array for array."""
    field = get_field(p, n)
    size = field.q ** d
    assert tabled(field, d)
    e = table_stack(field, d)
    kernels = (nu_bruteforce, hyperplane_sum, line_counts_all, difference_counts)
    for fn in kernels:
        fn(e)  # builds the field's point and direction tables
    with monkeypatch.context() as m:
        for name in ("point_dot", "point_add", "point_scale"):
            m.setattr(incidence, name, None)
        tables = [fn(e) for fn in kernels]
        assert nu(e).tolist() == tables[0].tolist()
    monkeypatch.setattr(fourier, "DENSE_BLOCK_BYTES", 16 * size * size - 1)
    assert not tabled(field, d)
    for fn, want in zip(kernels, tables):
        got = fn(e)
        assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want), fn.__name__
    flats = [np.flatnonzero(row).tolist() for row in e.bits]
    assert [t.tolist() for t in tables] == list(integer_counts(field, d, flats))


@pytest.mark.parametrize("fn", [nu_bruteforce, hyperplane_sum, line_counts_all,
                                difference_counts])
def test_table_kernel_peak_memory_stays_near_the_cap(fn):
    """64 sets of F_2^7, 20 to 128 points: the difference counts gather the
    bits through the add table in row blocks, where the whole 64 x 128 x 128
    gather would be 4 caps."""
    field = get_field(2, 1)
    rows = [random_flats(2, 7, 20 + i * 108 // 63, 20 + i) for i in range(64)]
    bits = np.zeros((64, 128), dtype=bool)
    for row, flats in zip(bits, rows):
        row[flats] = True
    e = PointSet(field, 7, bits)
    fn(e)  # builds the field's point tables
    tracemalloc.start()
    try:
        out = fn(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * DENSE_BLOCK_BYTES


def mixed_stack(field, d, k, rows, trial):
    """rows sorted k-subsets of F_q^d; the even rows hold the origin."""
    universe = field.q ** d - 1
    out = []
    for r in range(rows):
        rng = stream(80, trial, r, 7)
        if r % 2 == 0:
            out.append([0] + (1 + np.sort(rng.choice(universe, k - 1, replace=False))).tolist())
        else:
            out.append((1 + np.sort(rng.choice(universe, k, replace=False))).tolist())
    return np.array(out, dtype=np.int64)


def close(fhat, expect):
    """Whether fhat = expect to within a relative 1e-8 of the largest value."""
    return np.abs(fhat - expect).max() <= 1e-8 * max(1.0, np.abs(expect).max())


def per_set_checks(field, d, flats):
    """The point checks of one set, each the paper's statement on the set
    with its origin stripped, its core: nu, the line counts, the hyperplane
    sums and the difference counts are counted in Python integers with
    `fdot`, `scale` and `translate`, the inequalities compared in Python
    integers, and the transforms taken by `fourier_forward_direct`."""
    q, size = field.q, field.q ** d
    core = [x for x in flats.tolist() if x != 0]
    members, n = set(core), len(core)
    nu_ref = [0] * q
    for x in core:
        for y in core:
            nu_ref[fdot(field, d, x, y)] += 1
    lines = [n] + [sum(scale(field, d, t, m) in members for t in range(1, q))
                   for m in range(1, size)]
    max_line = max(lines[1:])
    out = {"cover": None}
    if len(flats) ** 2 > q ** (d + 1):
        missing = [t for t in range(1, q) if not nu_ref[t]]
        out["cover"] = not missing
        if missing:
            out["cover_missing"] = missing[:32]
    worst = max((q * nu_ref[t] - n * n) ** 2 for t in range(1, q))
    out["remainder"] = worst <= n * n * q ** (d + 1)
    out["sharpness_frac"] = (worst, n * n * q ** (d + 1))

    def direct_hat(values):
        return fourier_forward_direct(field, d, values)

    # Fhat(k) = |E intersect l_k| / q for k != 0 and |E| / q at 0, and the
    # transform of the difference counts is q^d |Ehat|^2.
    hsum = [sum(fdot(field, d, x, m) == 0 for x in core) for m in range(size)]
    ehat = direct_hat([x in members for x in range(size)])
    dhat = direct_hat(differences(field, d, core))
    out["identities"] = bool(close(direct_hat(hsum), np.array(lines) / q)
                             and close(dhat, size * np.abs(ehat) ** 2))
    out["second_moment"] = (q * sum(c * c for c in nu_ref)
                            <= max_line * n * n * q ** d + n ** 4)
    dots = sum(c > 0 for c in nu_ref)
    out["keylowerbound"] = dots * (max_line * q ** d + n * n) >= q * n * n
    return out


@pytest.mark.parametrize("p,n,d,k", [(2, 2, 2, 6), (5, 1, 2, 12), (3, 2, 2, 30),
                                     (3, 1, 3, 8), (2, 1, 2, 1), (3, 1, 2, 1)])
@pytest.mark.parametrize("cap", [DENSE_BLOCK_BYTES, 1])
def test_stacked_counts_and_checks_match_per_set_oracles(monkeypatch, p, n, d, k, cap):
    """Five sets in one stack, the even ones holding the origin (at k = 1
    their core is empty), at the default cap and in one-row blocks."""
    monkeypatch.setattr(fourier, "DENSE_BLOCK_BYTES", cap)
    field = get_field(p, n)
    q, size = field.q, field.q ** d
    flats = mixed_stack(field, d, k, 5, k)
    stack = PointSet.from_flat(field, d, flats)
    assert stack.count == k and np.nonzero(stack.bits)[1].reshape(flats.shape).tolist() == \
        flats.tolist()

    brute, spectral = nu_bruteforce(stack), nu_spectral(stack)
    hsum, lines = hyperplane_sum(stack), line_counts_all(stack)
    diffs = difference_counts(stack)
    for r, row in enumerate(flats.tolist()):
        nu_ref = [0] * q
        for x in row:
            for y in row:
                nu_ref[fdot(field, d, x, y)] += 1
        assert brute[r].tolist() == spectral[r].tolist() == nu_ref
        assert hsum[r].tolist() == [
            sum(fdot(field, d, x, m) == 0 for x in row) for m in range(size)]
        assert lines[r].tolist() == [
            sum(stack.bits[r, scale(field, d, t, m)] for t in range(q)) for m in range(size)]
        assert diffs[r].tolist() == differences(field, d, row)

    got = geometry._geometry_checks(field, d, stack, geometry.POINT_CHECKS)
    want = [per_set_checks(field, d, row) for row in flats]
    for c in geometry.POINT_CHECKS:
        checked, passed = got[c]
        assert checked.tolist() == [w[c] is not None for w in want]
        assert passed[checked].tolist() == [w[c] for w in want if w[c] is not None]
    assert got["missing"] == [w["cover_missing"] for w in want if "cover_missing" in w]
    worst, n = got["sharpness"]
    assert [(r * r, m * m * q ** (d + 1)) for r, m in zip(worst.tolist(), n.tolist())] == \
        [w["sharpness_frac"] for w in want]


def mixed_size_bits(field, d, sizes):
    """The bits of a stack of sets of the given sizes, the non-empty even
    rows holding the origin."""
    universe = field.q ** d
    bits = np.zeros((len(sizes), universe), dtype=bool)
    for r, k in enumerate(sizes):
        origin = r % 2 == 0 and k > 0
        rng = stream(82, r, k, 9)
        bits[r, 1 + rng.choice(universe - 1, k - origin, replace=False)] = True
        bits[r, 0] = origin
    return bits


# Stacks with the empty and the full set of their space.
F3_SIZES, F13_SIZES = (4, 0, 9, 1, 6, 6, 2), (40, 7, 169, 0, 90, 1)


@pytest.mark.parametrize("p,n,d,sizes,spectral", [
    (3, 1, 2, F3_SIZES, False),      # from the point tables
    (13, 1, 2, F13_SIZES, False),    # coordinate by coordinate
    (7, 1, 3, (300, 12, 150, 299, 0), False),    # nu's switch: brute force up to 300
    (7, 1, 3, (301, 12, 150, 300, 0), True),     # and the transform above
])
@pytest.mark.parametrize("cap", [DENSE_BLOCK_BYTES, 1])
def test_mixed_size_stacks_match_per_set_counts(monkeypatch, p, n, d, sizes, spectral, cap):
    """A stack of sets of several sizes, the non-empty even rows holding the
    origin: nu (by the path its largest set selects), both nu paths, the
    line counts, the hyperplane sums and the difference counts give each set
    its own counts."""
    monkeypatch.setattr(fourier, "DENSE_BLOCK_BYTES", cap)
    field = get_field(p, n)
    bits = mixed_size_bits(field, d, sizes)
    stack = PointSet(field, d, bits)
    assert stack.sizes.tolist() == list(sizes) and stack.count == max(sizes)
    singles = [PointSet(field, d, row) for row in bits]

    seen = []
    real_spectral = incidence.nu_spectral
    monkeypatch.setattr(incidence, "nu_spectral", lambda e: seen.append(e) or real_spectral(e))
    counts = nu(stack).tolist()
    assert seen == ([stack] if spectral else [])
    assert counts == [nu_bruteforce(e).tolist() for e in singles]
    assert nu_bruteforce(stack).tolist() == real_spectral(stack).tolist() == counts
    assert line_counts_all(stack).tolist() == [line_counts_all(e).tolist() for e in singles]
    assert hyperplane_sum(stack).tolist() == [hyperplane_sum(e).tolist() for e in singles]
    assert difference_counts(stack).tolist() == [difference_counts(e).tolist() for e in singles]


def test_nu_spectral_equals_brute_force_on_every_set():
    """Brute force is the oracle of the spectral path, which rounds under its
    derived bound and recounts nothing: each set of the mixed stacks of F_3^2
    and F_13^2, the empty and the full set among them, and sets of more than
    300 points in F_101^2, give the same counts both ways."""
    for p, sizes in ((3, F3_SIZES), (13, F13_SIZES), (101, (301, 450))):
        field = get_field(p, 1)
        for bits in mixed_size_bits(field, 2, sizes):
            e = PointSet(field, 2, bits)
            assert nu_spectral(e).tolist() == nu_bruteforce(e).tolist(), (p, e.count)


def test_stacked_kernel_peak_memory_stays_near_the_cap():
    """64 sets of 2000 points in F_101^2: each set's 4e6 pairs are split
    into row blocks, and a line-count block gathers for a few points."""
    field = get_field(101, 1)
    flats = np.stack([random_flats(101, 2, 2000, 10 + i) for i in range(64)])
    e = PointSet.from_flat(field, 2, flats)
    warm = PointSet.from_flat(field, 2, flats[:2, :50])
    for fn in (nu_bruteforce, line_counts_all):
        fn(warm)
        tracemalloc.start()
        try:
            out = fn(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond the result (64 x 10201 int64 line counts are 20 caps).
        assert peak - getattr(out, "counts", out).nbytes <= 4 * DENSE_BLOCK_BYTES, fn.__name__


def test_point_constructors_match_oracles():
    field = get_field(3, 2)
    q = field.q
    line = PointSet.line(field, 3, 10)
    assert set(line.flat_indices().tolist()) == {scale(field, 3, t, 10) for t in range(q)}
    plane = PointSet.perp_hyperplane(field, 3, 10)
    assert plane.flat_indices().tolist() == [
        m for m in range(q ** 3) if fdot(field, 3, m, 10) == 0]


@pytest.mark.parametrize("p,n,d,size,spectral", [
    (101, 1, 2, 300, False),     # brute force up to 300 points
    (101, 1, 2, 301, True),
    (7, 1, 3, 301, True),
    (101, 1, 3, 1600, False),    # 40 |E|^2 <= q^{d+1}
    (101, 1, 3, 1700, True),
])
def test_nu_crossover(monkeypatch, p, n, d, size, spectral):
    field = get_field(p, n)
    monkeypatch.setattr(incidence, "nu_bruteforce", lambda e: "brute")
    monkeypatch.setattr(incidence, "nu_spectral", lambda e: "spectral")
    e = PointSet.from_flat(field, d, np.arange(size))
    assert nu(e) == ("spectral" if spectral else "brute")


@pytest.mark.parametrize("bound,spectral", [(0.5, False), (0.4999, True)])
def test_nu_takes_brute_force_where_the_spectral_bound_reaches_half(monkeypatch, bound,
                                                                     spectral):
    # 400 points of F_101^2 are on the spectral side of the size rule; with
    # their rounding bound patched to 1/2, nu counts them by brute force
    # instead of raising.
    field = get_field(101, 1)
    e = PointSet.from_flat(field, 2, np.sort(stream(94, 400, 2, 43).choice(
        101 ** 2, 400, replace=False)))
    calls = []
    monkeypatch.setattr(incidence, "spectral_error",
                        lambda q, d, size: calls.append(size) or bound + 0 * np.asarray(size))
    assert nu(e).tolist() == nu_bruteforce(e).tolist()
    assert calls[0] == 400 and (len(calls) == 2) == spectral
