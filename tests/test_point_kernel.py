"""The blocked point kernel of `fourier` and the incidence counts built on it.

Every blocked count is compared with a Python-integer oracle built from the
scalar `field.add` and `field.mul`, with the byte cap patched down so that
each kernel runs in many one-row blocks.  The kernels themselves are
checked on both of their paths: from the point tables of spaces up to
q^d = 128 at the default cap, and coordinate by coordinate above it or
under the patched cap, with the field-array calls of each path counted.  q = 4, 5 and 9 cover the XOR,
prime and add-table paths of `Field.add_arrays`.  Stacks of sets, some
holding the origin, are checked set by set against the same oracles, and
their geometry verdicts against the paper's inequalities in Python integers.
"""

import tracemalloc

import numpy as np
import pytest

import fqcover.fourier as fourier
import fqcover.harness as harness
import fqcover.incidence as incidence
from fqcover.fourier import (
    DENSE_BLOCK_BYTES,
    SpectralFn,
    convolve_diff,
    coords_to_flat,
    dot,
    flat_to_coords,
    fourier_forward_direct,
    point_add,
    point_dot,
    point_scale,
    row_blocks,
    stack_blocks,
)
from fqcover.harness import get_field, stream
from fqcover.incidence import (
    PointSet,
    hyperplane_sum,
    line_counts_all,
    nu,
    nu_bruteforce,
    nu_spectral,
)

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
    """Whether the point kernels of F_q^d are served from tables: the
    q^d x q^d pair grid fits one row block."""
    return len(row_blocks(field.q ** d, field.q ** d)) == 1


def check_kernels_against_scalar_ops(monkeypatch, p, n, d):
    """point_dot, point_add and point_scale against the scalar field ops,
    with the field-array calls of a second round counted: none from the
    tables, d multiplications and d - 1 additions per dot product, d
    additions per sum and d multiplications per scaling without them."""
    field = get_field(p, n)
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
    if tabled(field, d):
        assert calls == {"add_arrays": 0, "mul_arrays": 0}
        assert all(field._coords_cache[d, name].dtype == np.int64
                   for name in ("dot", "add", "scale"))
    else:
        assert calls == {"add_arrays": 2 * d - 1, "mul_arrays": 2 * d}


@pytest.mark.parametrize("p,n,d", SPACES)
def test_kernel_matches_scalar_field_ops(monkeypatch, p, n, d):
    """At the default cap every space up to q^d = 128 uses its tables."""
    assert tabled(get_field(p, n), d) == ((p, n, d) != (3, 2, 3))
    check_kernels_against_scalar_ops(monkeypatch, p, n, d)


@pytest.mark.parametrize("p,n,d", SPACES)
def test_kernel_matches_scalar_field_ops_in_one_row_blocks(one_row_blocks, monkeypatch,
                                                           p, n, d):
    """Under a one-byte cap no space uses tables, even where they exist."""
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
    assert nu_bruteforce(e).counts.tolist() == nu_ref
    # nu_spectral's s-sums run through the kernel in one-row blocks too.
    assert nu_spectral(e).counts.tolist() == nu_ref

    assert hyperplane_sum(e).values.real.tolist() == [
        sum(fdot(field, d, x, m) == 0 for x in flats) for m in range(size)]
    assert line_counts_all(e).tolist() == [
        sum(e.bits[scale(field, d, t, k)] for t in range(q)) for k in range(size)]

    rng = stream(78, q, d, 6)
    f_vals = rng.integers(-3, 4, size)
    g_vals = np.where(e.bits, rng.integers(1, 4, size), 0)
    got = convolve_diff(SpectralFn.from_real(field, d, f_vals),
                        SpectralFn.from_real(field, d, g_vals)).values
    want = [sum(int(g_vals[y]) * int(f_vals[translate(field, d, m, y)]) for y in flats)
            for m in range(size)]
    assert got.real.tolist() == want and not got.imag.any()


def count_calls(monkeypatch, field, d, flats):
    """Per count of the set of flats, its field-array calls and the row
    blocks of its pair grid."""
    e = PointSet.from_flat(field, d, flats)
    grids = {nu_bruteforce: (e.count, e.count), hyperplane_sum: (field.q ** d, e.count),
             line_counts_all: (field.q ** d, field.q)}
    out = {}
    for fn, (rows, cols) in grids.items():
        fn(e)  # builds the field's point tables where it has them
        with monkeypatch.context() as m:
            calls = count_field_calls(m, field)
            fn(e)
        out[fn.__name__] = (calls, len(list(stack_blocks(1, rows, cols))))
    return out


@pytest.mark.parametrize("p,n,d", [(2, 2, 3), (3, 2, 2), (3, 2, 3),
                                   (2, 1, 7), (11, 1, 2), (2, 1, 8), (13, 1, 2)])
def test_kernel_calls_do_not_grow_with_the_set(monkeypatch, p, n, d):
    """With the tables of F_4^3, F_9^2, F_2^7 and F_11^2 (q^d <= 128), no
    field-array call at all; on F_9^3, F_2^8 and F_13^2, d multiplications
    per row block, and d - 1 additions per block of dot products."""
    field = get_field(p, n)
    assert tabled(field, d) == (p ** (n * d) <= 128)
    for size in (5, 40):
        got = count_calls(monkeypatch, field, d, random_flats(field.q, d, size, 3))
        for name, (calls, blocks) in got.items():
            if tabled(field, d):
                assert calls == {"add_arrays": 0, "mul_arrays": 0}, name
            else:
                adds = 0 if name == "line_counts_all" else d - 1
                assert calls == {"add_arrays": adds * blocks, "mul_arrays": d * blocks}, name


def test_patched_cap_leaves_the_tables_of_a_field(monkeypatch):
    """A cap patched to 1 after F_9^2 has its tables sends every kernel back
    to the per-coordinate path, with the same counts."""
    field = get_field(3, 2)
    flats = random_flats(9, 2, 20, 5)
    before = count_calls(monkeypatch, field, 2, flats)
    assert (2, "dot") in field._coords_cache
    assert all(calls["mul_arrays"] == 0 for calls, _ in before.values())
    e = PointSet.from_flat(field, 2, flats)
    want = [nu_bruteforce(e).counts, hyperplane_sum(e).values, line_counts_all(e)]
    monkeypatch.setattr(fourier, "DENSE_BLOCK_BYTES", 1)
    for name, (calls, blocks) in count_calls(monkeypatch, field, 2, flats).items():
        assert blocks > 1 and calls["mul_arrays"] == 2 * blocks, name
    got = [nu_bruteforce(e).counts, hyperplane_sum(e).values, line_counts_all(e)]
    assert all(np.array_equal(a, b) for a, b in zip(want, got))


@pytest.mark.parametrize("fn", [nu_bruteforce, hyperplane_sum])
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
    nu_ref, diff = [0] * q, [0] * size
    for x in core:
        for y in core:
            nu_ref[fdot(field, d, x, y)] += 1
            diff[translate(field, d, x, scale(field, d, field.neg(1), y))] += 1
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
        return fourier_forward_direct(SpectralFn.from_real(field, d, values)).values

    # Fhat(k) = |E intersect l_k| / q for k != 0 and |E| / q at 0, and the
    # transform of the difference counts is q^d |Ehat|^2.
    hsum = [sum(fdot(field, d, x, m) == 0 for x in core) for m in range(size)]
    ehat = direct_hat([x in members for x in range(size)])
    out["identities"] = bool(close(direct_hat(hsum), np.array(lines) / q)
                             and close(direct_hat(diff), size * np.abs(ehat) ** 2))
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
    assert stack.count == k and stack.flat_indices().tolist() == flats.tolist()

    brute, spectral = nu_bruteforce(stack).counts, nu_spectral(stack).counts
    hsum, lines = hyperplane_sum(stack).values, line_counts_all(stack)
    weights = np.where(stack.bits, 1 + np.arange(size) % 3, 0)
    values = stream(81, q, d, 8).integers(-3, 4, (5, size))
    conv = convolve_diff(SpectralFn.from_real(field, d, values),
                         SpectralFn.from_real(field, d, weights)).values
    for r, row in enumerate(flats.tolist()):
        nu_ref = [0] * q
        for x in row:
            for y in row:
                nu_ref[fdot(field, d, x, y)] += 1
        assert brute[r].tolist() == spectral[r].tolist() == nu_ref
        assert hsum[r].real.tolist() == [
            sum(fdot(field, d, x, m) == 0 for x in row) for m in range(size)]
        assert lines[r].tolist() == [
            sum(stack.bits[r, scale(field, d, t, m)] for t in range(q)) for m in range(size)]
        assert conv[r].real.tolist() == [
            sum(int(weights[r, y]) * int(values[r, translate(field, d, m, y)]) for y in row)
            for m in range(size)]

    got = harness._geometry_checks(field, d, stack, harness.POINT_CHECKS)
    assert got == [per_set_checks(field, d, row) for row in flats]


def test_stack_blocks_cover_every_pair_once(monkeypatch):
    for cap, rows, k, cols in [(1, 3, 4, 5), (16 * 5 * 4, 7, 4, 5), (16 * 5 * 3, 2, 7, 5),
                               (DENSE_BLOCK_BYTES, 64, 81, 9)]:
        monkeypatch.setattr(fourier, "DENSE_BLOCK_BYTES", cap)
        seen = np.zeros((rows, k), dtype=np.int64)
        for sets, items in stack_blocks(rows, k, cols):
            block = seen[sets, items]
            assert block.size * cols * 16 <= max(cap, 16 * cols)
            seen[sets, items] += 1
        assert (seen == 1).all()


def test_stacked_kernel_peak_memory_stays_near_the_cap():
    """64 sets of 2000 points in F_101^2: each set's 4e6 pairs are split
    into (set, x) blocks, and a line-count block gathers for a few points."""
    field = get_field(101, 1)
    flats = np.stack([random_flats(101, 2, 2000, 10 + i) for i in range(64)])
    e = PointSet.from_flat(field, 2, flats)
    e.flat_indices()  # computed once and shared, like the field's caches
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
    (101, 1, 2, 300, False),     # nu_spectral would recount by brute force
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
