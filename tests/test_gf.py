import cmath
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fqcover.gf as gf
from fqcover.gf import (
    DegreeOutOfRangeError,
    FieldTooLargeError,
    NoProperSubfieldError,
    NotPrimeError,
    ReducibleModulusError,
    _is_irreducible,
    _least_irreducible,
    make_field,
    sqrt_subfield_indices,
    subfield_indices,
)
from fqcover.harness import get_field

TABLE_DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "field_table_digests.json")
TABLES = ("exp_table", "log_table", "inv_table", "neg_table", "trace_table")


# ---------------------------------------------------------------------------
# construction and modulus selection
# ---------------------------------------------------------------------------

def _is_irreducible_by_roots_deg2or3(coeffs, p):
    # oracle: a degree 2 or 3 polynomial over F_p is irreducible iff rootless
    def ev(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc
    return all(ev(x) != 0 for x in range(p))


def test_gf4_modulus_is_the_unique_degree2_irreducible():
    # oracle: enumerate all monic quadratics over F_2 and test for roots
    irreducibles = [tail for tail in itertools.product(range(2), repeat=2)
                    if _is_irreducible_by_roots_deg2or3(list(tail) + [1], 2)]
    assert irreducibles == [(1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_modulus_is_lexicographically_least():
    for p, n in [(3, 2), (2, 3), (5, 2), (2, 4), (7, 2)]:
        field = get_field(p, n)
        chosen_tail = field.modulus[:-1]
        for tail in itertools.product(range(p), repeat=n):
            if tail == chosen_tail:
                break
            # everything before the chosen modulus must be reducible
            assert not _poly_is_irreducible_oracle(list(tail) + [1], p)


def _poly_is_irreducible_oracle(coeffs, p):
    # plain trial division over F_p, independent of the library helpers
    n = len(coeffs) - 1

    def poly_mod(a, m):
        a = [c % p for c in a]
        dm = len(m) - 1
        for i in range(len(a) - 1, dm - 1, -1):
            c = a[i]
            if c:
                a[i] = 0
                for j in range(dm):
                    a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
        while a and a[-1] == 0:
            a.pop()
        return a

    for e in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            if not poly_mod(list(coeffs), list(tail) + [1]):
                return False
    return True


def test_prime_field_uses_plain_mod_arithmetic():
    field = make_field(5, 1)
    assert field.modulus == (0, 1)
    assert field.add(3, 4) == 2
    assert field.mul(3, 4) == 2
    assert field.neg(2) == 3


def _full_search_least_irreducible(p, n):
    # The search without the constant-term skip, as the reference.
    for tail in itertools.product(range(p), repeat=n):
        if _is_irreducible(list(tail) + [1], p):
            return tuple(tail) + (1,)


def _sympy_irreducible(coeffs, p):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 5), (2, 8), (3, 2), (3, 4),
                                 (5, 2), (5, 3), (7, 3), (13, 2)])
def test_least_irreducible_equals_full_search(p, n):
    m = _least_irreducible(p, n)
    assert m == _full_search_least_irreducible(p, n)
    assert _sympy_irreducible(list(m), p)


@pytest.mark.parametrize("p,n", [(2, 12), (2, 18), (2, 21), (3, 10), (5, 7), (7, 5)])
def test_least_irreducible_large_degree_against_sympy(p, n):
    m = list(_least_irreducible(p, n))
    assert m[0] != 0 and m[-1] == 1 and len(m) == n + 1
    assert _sympy_irreducible(m, p)
    # Every monic candidate before it with a nonzero constant term is
    # reducible; the ones with constant term 0 are divisible by x.
    for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        if list(tail) == m[:-1]:
            break
        assert not _sympy_irreducible(list(tail) + [1], p)


def test_make_field_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        make_field(4, 1)
    with pytest.raises(NotPrimeError):
        make_field(1, 1)
    with pytest.raises(DegreeOutOfRangeError):
        make_field(5, 0)
    with pytest.raises(FieldTooLargeError):
        make_field(2, 21)
    make_field(2, 21, size_cap=1 << 21)  # cap is configurable


def test_corrupted_modulus_injection_fails_fast():
    # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ReducibleModulusError):
        make_field(2, 2, _modulus=(1, 0, 1))
    with pytest.raises(ReducibleModulusError):
        make_field(3, 2, _modulus=(0, 0, 1))  # x^2, obviously reducible
    # a legitimate non-canonical modulus is accepted
    field = make_field(3, 2, _modulus=(2, 2, 1))
    assert field.q == 9


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_gf4_multiplication_table():
    # oracle: reduce omega^2 by hand against x^2 + x + 1: omega^2 = omega + 1
    field = get_field(2, 2)
    omega, omega1 = 2, 3
    assert field.mul(omega, omega) == omega1
    assert field.mul(omega, omega1) == 1
    assert field.mul(omega1, omega1) == omega


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (13, 1), (2, 4), (5, 2)])
def test_field_axioms_exhaustive(p, n):
    """Associativity, commutativity, distributivity, identities, inverses."""
    field = get_field(p, n)
    a = np.arange(field.q)
    aa, bb, cc = a[:, None, None], a[None, :, None], a[None, None, :]
    assert np.array_equal(field.add_arrays(aa, field.add_arrays(bb, cc)),
                          field.add_arrays(field.add_arrays(aa, bb), cc))
    assert np.array_equal(field.mul_arrays(aa, field.mul_arrays(bb, cc)),
                          field.mul_arrays(field.mul_arrays(aa, bb), cc))
    ab = field.add_arrays(a[:, None], a[None, :])
    assert np.array_equal(ab, ab.T)
    mul_ab = field.mul_arrays(a[:, None], a[None, :])
    assert np.array_equal(mul_ab, mul_ab.T)
    assert np.array_equal(field.mul_arrays(aa, field.add_arrays(bb, cc)),
                          field.add_arrays(field.mul_arrays(aa, bb),
                                           field.mul_arrays(aa, cc)))
    assert np.array_equal(field.add_arrays(a, 0), a)
    assert np.array_equal(field.mul_arrays(a, 1), a)
    assert np.all(field.mul_arrays(a, 0) == 0)
    for x in range(1, field.q):
        assert field.mul(x, field.inv(x)) == 1
    assert np.array_equal(field.add_arrays(a, field.neg_table[a]),
                          np.zeros(field.q, dtype=np.int64))


def test_field_axioms_random_triples_large_field():
    # GF(2^13) and GF(3^8) exceed the table threshold, so this also
    # exercises the log/antilog path and, for GF(3^8), Zech addition
    for p, n in [(2, 13), (3, 8)]:
        field = make_field(p, n)
        assert field.mul_table is None
        rng = np.random.default_rng(20240817)
        a, b, c = (rng.integers(0, field.q, size=100_000) for _ in range(3))
        assert np.array_equal(field.mul_arrays(field.mul_arrays(a, b), c),
                              field.mul_arrays(a, field.mul_arrays(b, c)))
        assert np.array_equal(field.add_arrays(field.add_arrays(a, b), c),
                              field.add_arrays(a, field.add_arrays(b, c)))
        assert np.array_equal(field.mul_arrays(a, field.add_arrays(b, c)),
                              field.add_arrays(field.mul_arrays(a, b),
                                               field.mul_arrays(a, c)))
        nz = a[a != 0]
        assert np.all(field.mul_arrays(nz, field.inv_table[nz]) == 1)


def _digitwise_add(p, n, a, b):
    """a + b from the base-p digits of the element indices, digit by digit
    mod p; for Python integers or numpy integer arrays alike."""
    return sum((a // p ** i + b // p ** i) % p * p ** i for i in range(n))


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (3, 5), (5, 5), (7, 3)])
def test_add_table_matches_digitwise_oracle_on_all_pairs(p, n):
    field = make_field(p, n)
    q = field.q
    assert field.add_table is not None
    b = np.arange(q)
    for lo in range(0, q, 256):
        a = np.arange(lo, min(lo + 256, q))[:, None]
        assert np.array_equal(field.add_arrays(a, b), _digitwise_add(p, n, a, b))
    for x, y in zip(range(q), np.random.default_rng(5).permutation(q).tolist()):
        assert field.add(x, y) == _digitwise_add(p, n, x, y)


@pytest.mark.parametrize("p,n", [(3, 8), (5, 6)])
def test_zech_addition_matches_digitwise_oracle_on_random_pairs(p, n):
    field = make_field(p, n)
    assert field.add_table is None and field.zech_table is not None
    rng = np.random.default_rng(11)
    a, b = (rng.integers(0, field.q, size=100_000) for _ in range(2))
    # The special cases of Zech addition: a zero summand and b = -a.
    a[:1000] = 0
    b[1000:2000] = 0
    b[2000:3000] = field.neg_table[a[2000:3000]]
    expect = _digitwise_add(p, n, a, b)
    assert np.array_equal(field.add_arrays(a, b), expect)
    for x, y, z in zip(a[::25].tolist(), b[::25].tolist(), expect[::25].tolist()):
        assert field.add(x, y) == z


@pytest.mark.parametrize("p,n", [(5, 1), (2, 4), (3, 2), (3, 8)])
def test_array_ops_return_int64(p, n):
    field = make_field(p, n)
    a = np.arange(field.q, dtype=np.int64)
    assert field.add_arrays(a[:, None], a[None, :9]).dtype == np.int64
    assert field.add_arrays(a, 1).dtype == np.int64
    assert field.mul_arrays(a[:, None], a[None, :9]).dtype == np.int64
    assert field.neg_table.dtype == np.int64


def _table_entries():
    with open(TABLE_DIGESTS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("entry", _table_entries(), ids=lambda e: f"{e['p']}^{e['n']}")
def test_tables_match_the_recorded_digests(entry):
    field = make_field(entry["p"], entry["n"], size_cap=1 << 21)
    for name in TABLES:
        table = np.asarray(getattr(field, name), dtype="<i8")
        assert hashlib.sha256(table.tobytes()).hexdigest() == entry[name], name
    assert field.generator == entry["generator"]


def test_make_field_peak_memory_is_a_small_multiple_of_its_tables():
    field = make_field(2, 18)
    table_bytes = sum(getattr(field, name).nbytes for name in TABLES)
    tracemalloc.start()
    try:
        make_field(2, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The tables take 40 bytes per element; a q x n int64 digit matrix
    # alone would take 144.
    assert peak <= 3 * table_bytes


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        get_field(5, 1).inv(0)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (5, 1), (2, 4)])
def test_frobenius_is_additive(p, n):
    field = get_field(p, n)
    a = np.arange(field.q)
    lhs = field.pow_arrays(field.add_arrays(a[:, None], a[None, :]), p)
    rhs = field.add_arrays(field.pow_arrays(a, p)[:, None],
                           field.pow_arrays(a, p)[None, :])
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# trace and character
# ---------------------------------------------------------------------------

def test_gf4_trace_values():
    # oracle: Tr(a) = a + a^2 in GF(4), computed with the scalar ops
    field = get_field(2, 2)
    for a in range(4):
        assert field.trace(a) == field.add(a, field.mul(a, a))
    assert [field.trace(a) for a in range(4)] == [0, 0, 1, 1]


def test_prime_field_trace_is_identity():
    field = get_field(7, 1)
    assert [field.trace(a) for a in range(7)] == list(range(7))


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2)])
def test_trace_linear_and_surjective(p, n):
    field = get_field(p, n)
    a = np.arange(field.q)
    tr = field.trace_table
    assert np.array_equal(tr[field.add_arrays(a[:, None], a[None, :])],
                          (tr[:, None] + tr[None, :]) % p)
    assert set(tr.tolist()) == set(range(p))


def test_chi_on_prime_field_matches_exponential_formula():
    # chi(t) = e^{2 pi i t / q} on a prime field
    field = get_field(5, 1)
    assert cmath.isclose(field.chi(2), cmath.exp(4j * cmath.pi / 5), abs_tol=1e-12)
    for t in range(5):
        assert cmath.isclose(field.chi(t), cmath.exp(2j * cmath.pi * t / 5),
                             abs_tol=1e-12)


def test_chi_basics():
    field = get_field(2, 2)
    assert field.chi(0) == pytest.approx(1)
    assert field.chi(2) == pytest.approx(-1)  # trace(omega) = 1, p = 2


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)])
def test_chi_is_a_nontrivial_additive_character(p, n):
    field = get_field(p, n)
    vals = [field.chi(a) for a in range(field.q)]
    for a in range(field.q):
        for b in range(field.q):
            assert cmath.isclose(vals[field.add(a, b)], vals[a] * vals[b],
                                 abs_tol=1e-12)
    assert any(abs(v - 1) > 1e-9 for v in vals)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2), (13, 1), (2, 4), (5, 2)])
def test_character_orthogonality(p, n):
    """sum_t chi(a t) is 0 for a != 0 and q for a = 0, exactly to tolerance."""
    field = get_field(p, n)
    q = field.q
    for a in range(q):
        total = sum(field.chi(field.mul(a, t)) for t in range(q))
        if a == 0:
            assert abs(total - q) <= 1e-9 * q
        else:
            assert abs(total) <= 1e-9 * q


# ---------------------------------------------------------------------------
# generator and subfields
# ---------------------------------------------------------------------------

def _order_oracle_prime(g, p):
    k, x = 1, g % p
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_multiplicative_generator_examples():
    # oracle: brute-force orders in the prime fields
    assert all(_order_oracle_prime(g, 5) < 4 for g in [1, 4])
    assert _order_oracle_prime(2, 5) == 4
    assert get_field(5, 1).generator == 2
    assert all(_order_oracle_prime(g, 7) < 6 for g in [1, 2, 4])
    assert _order_oracle_prime(3, 7) == 6
    assert get_field(7, 1).generator == 3
    assert get_field(2, 1).generator == 1


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (7, 1), (3, 2), (2, 4), (5, 2)])
def test_generator_is_least_with_full_order(p, n):
    field = get_field(p, n)
    g = field.generator

    def order(x):
        k, y = 1, x
        while y != 1:
            y = field.mul(y, x)
            k += 1
        return k

    assert order(g) == field.q - 1
    for smaller in range(1, g):
        assert order(smaller) < field.q - 1


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 5),
                                 (7, 3), (3, 5)])
def test_exp_and_log_tables_walk_the_generator(p, n):
    # oracle: polynomial multiplication by the generator, not the tables
    field = make_field(p, n)
    modulus = list(field.modulus)

    def poly(a):
        return gf._poly_trim([(a // p ** i) % p for i in range(n)])

    def index(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    x = [1]
    for i in range(field.q - 1):
        assert field.exp_table[i] == index(x) and field.log_table[index(x)] == i
        x = gf._poly_mulmod(x, poly(field.generator), modulus, p)
    assert x == [1]
    assert len(field.exp_table) == field.q - 1


def test_trace_table_is_checked_against_the_frobenius_sum(monkeypatch):
    build = gf.Field._build_trace_and_char

    def shifted(self):
        build(self)
        self.trace_table = np.roll(self.trace_table, 1)

    monkeypatch.setattr(gf.Field, "_build_trace_and_char", shifted)
    with pytest.raises(AssertionError, match="Frobenius"):
        make_field(3, 2)


def test_unit_group_walk_refuses_a_non_generator(monkeypatch):
    # With no prime factors to test, the generator search settles on 1,
    # whose powers repeat.
    monkeypatch.setattr(gf, "_prime_factors", lambda m: [])
    with pytest.raises(AssertionError, match="unit group"):
        make_field(5, 1)


def test_subfield_indices():
    f9 = get_field(3, 2)
    assert sorted(subfield_indices(f9, 1).tolist()) == [0, 1, 2]
    f16 = get_field(2, 4)
    sub4 = sqrt_subfield_indices(f16)
    assert len(sub4) == 4
    # closed under multiplication and addition
    s = set(sub4.tolist())
    for a in s:
        for b in s:
            assert f16.mul(a, b) in s
            assert f16.add(a, b) in s
    with pytest.raises(NoProperSubfieldError):
        sqrt_subfield_indices(get_field(5, 1))
    with pytest.raises(ValueError):
        subfield_indices(f16, 3)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

@given(st.integers(0, 15), st.integers(0, 15))
def test_trace_additive_gf16(a, b):
    field = get_field(2, 4)
    assert field.trace(field.add(a, b)) == (field.trace(a) + field.trace(b)) % 2


@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_scalar_ops_agree_with_arrays_gf25(a, b, c):
    field = get_field(5, 2)
    assert field.add(a, b) == int(field.add_arrays(np.array([a]), np.array([b]))[0])
    assert field.mul(a, b) == int(field.mul_arrays(np.array([a]), np.array([b]))[0])
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_large_field_construction_leaves_numpy_random_unloaded():
    # Above MUL_TABLE_MAX_Q the trace table is checked on a fixed stride of
    # elements, not on a random sample.
    code = ("import sys; from fqcover.gf import make_field; make_field(2, 13); "
            "print('numpy.random' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"
