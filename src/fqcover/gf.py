"""Exact arithmetic in GF(p^n), the absolute trace and the additive character.

Elements are plain integer indices in [0, q).  The index packs the
coefficient vector (c_0, ..., c_{n-1}) of the element in the power basis
as sum_i c_i * p^i, so index 0 is the additive identity and index 1 the
multiplicative identity.

The modulus is the lexicographically least monic irreducible polynomial
of degree n over F_p, comparing low-degree coefficients first.  Nothing
about the math depends on this choice, but fixing it makes element
indexing reproducible across builds, which every downstream report
relies on.
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_SIZE_CAP = 1 << 20
# Full q x q multiplication table below this size, log/antilog above it.
MUL_TABLE_MAX_Q = 4096


class NotPrimeError(ValueError):
    pass


class DegreeOutOfRangeError(ValueError):
    pass


class FieldTooLargeError(ValueError):
    pass


class ReducibleModulusError(ValueError):
    pass


class NoProperSubfieldError(ValueError):
    pass


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


# ----------------------------------------------------------------------
# Polynomial helpers over F_p.  Coefficient lists, constant term first,
# used only while bootstrapping a field; all bulk arithmetic afterwards
# goes through the precomputed tables.
# ----------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    a = [c % p for c in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            off = i - dm
            for j in range(dm):
                a[off + j] = (a[off + j] - c * m[j]) % p
    return _poly_trim(a)


def _poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    return _poly_mod(prod, m, p)


def _poly_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(list(a), m, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        e >>= 1
    return result


def _is_irreducible(m: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    n = len(m) - 1
    if n < 1:
        return False
    for e in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            g = list(tail) + [1]
            if not _poly_mod(list(m), g, p):
                return False
    return True


def _least_irreducible(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)  # the polynomial x; reduction mod x is plain mod-p arithmetic
    # A zero constant term makes x a factor, so the search starts at c_0 = 1.
    for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        m = list(tail) + [1]
        if _is_irreducible(m, p):
            return tuple(m)
    raise AssertionError(f"no irreducible of degree {n} over F_{p}")  # unreachable


# ----------------------------------------------------------------------
# Field
# ----------------------------------------------------------------------

class Field:
    """A finite field GF(p^n): fully tabulated up to MUL_TABLE_MAX_Q
    elements, logarithmic above it.

    Immutable after construction; every method is a pure read, so a
    single instance may be shared freely across threads and workers.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(int(c) % p for c in modulus)
        q = self.q

        self._build_log_tables()
        self.mul_table = self._build_mul_table() if q <= MUL_TABLE_MAX_Q else None

        a = np.arange(q, dtype=np.int64)
        # The element with index p - 1 is the constant p - 1, that is -1.
        self.neg_table = self.mul_arrays(p - 1, a)
        self.inv_table = np.where(a == 0, 0, self.exp_table[-self.log_table % (q - 1)])

        self._build_addition()
        self._build_trace_and_char()
        self._validate()

        self._char_matrix = None
        # The point tables of F_q^d that fourier builds on first use, keyed
        # by (d, table name); perfbench/child.py sums their bytes.
        self._coords_cache: dict[tuple[int, str], np.ndarray] = {}

    # -- construction internals ---------------------------------------

    def _poly(self, a: int) -> list[int]:
        """Coefficient list of the element with index a."""
        return _poly_trim([a // self.p ** i % self.p for i in range(self.n)])

    def _index(self, poly: list[int]) -> int:
        return sum(c * self.p ** i for i, c in enumerate(poly))

    def _linear_table(self, images: list[int]) -> np.ndarray:
        """Table of the F_p-linear map that sends digit i of a packed index
        sum_i c_i p^i (len(images) digits) to images[i], an element index.

        Digit j of the image is the linear form sum_i c_i * (digit j of
        images[i]) mod p, tabulated by place-value doubling: each input
        digit multiplies the table length by p.  Forms are computed in the
        narrowest unsigned dtype that holds 2p, the table in the narrowest
        that holds q; callers cast as they need.
        """
        p = self.p
        table = np.zeros(p ** len(images), dtype=np.min_scalar_type(self.q))
        for j in range(self.n):
            coeffs = [img // p ** j % p for img in images]
            if any(coeffs):
                form = np.zeros(1, dtype=np.min_scalar_type(2 * p))
                for c in coeffs:
                    shift = (np.arange(p) * c % p).astype(form.dtype)
                    form = ((shift[:, None] + form) % p).reshape(-1)
                table += np.multiply(form, p ** j, dtype=table.dtype)
        return table

    def _build_log_tables(self) -> None:
        p, n, q = self.p, self.n, self.q
        mod = list(self.modulus)

        # Least-index generator of the multiplicative group, found by the
        # factored-order test.
        factors = _prime_factors(q - 1) if q > 2 else []
        gen = 1
        for cand in range(1, q):
            poly = self._poly(cand)
            if all(_poly_powmod(poly, (q - 1) // ell, mod, p) != [1] for ell in factors):
                gen = cand
                break
        self.generator = gen

        # Multiplication by the generator is F_p-linear; tabulate it once
        # from the images of the basis x^j, then walk the cyclic group by
        # doubling: exp holds g^0..g^(k-1) and step is multiplication by g^k.
        gen_poly = self._poly(gen)
        mul_by_gen = self._linear_table(
            [self._index(_poly_mulmod([0] * j + [1], gen_poly, mod, p)) for j in range(n)])

        exp = np.ones(1, dtype=mul_by_gen.dtype)
        step = mul_by_gen
        while len(exp) < q - 1:
            exp = np.concatenate([exp, step[exp]])
            step = step[step]
        exp = exp[:q - 1].astype(np.int64)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(len(exp))
        self.exp_table = exp
        self.log_table = log
        # A repeated power would leave an earlier index unmatched in log.
        distinct = np.array_equal(log[exp], np.arange(len(exp)))
        if mul_by_gen[exp[-1]] != 1 or not distinct:
            raise AssertionError("generator does not enumerate the unit group")

    def _build_mul_table(self) -> np.ndarray:
        """The q x q product table in the narrowest dtype that holds an
        element index, filled in row blocks of about 1 MiB of int64 logs."""
        q = self.q
        table = np.zeros((q, q), dtype=np.min_scalar_type(q - 1))
        lg = self.log_table[1:]
        step = max(1, (1 << 17) // q)
        for lo in range(0, q - 1, step):
            rows = lg[lo:lo + step, None] + lg[None, :]
            rows %= q - 1
            table[1 + lo:1 + lo + step, 1:] = self.exp_table[rows]
        return table

    def _build_addition(self) -> None:
        """For odd p and n > 1: a q x q add table up to MUL_TABLE_MAX_Q,
        Zech logarithms above it.  Otherwise addition is mod p or XOR."""
        p, n, q = self.p, self.n, self.q
        self.add_table = self.zech_table = None
        if n == 1 or p == 2:
            return
        if q <= MUL_TABLE_MAX_Q:
            # Addition is F_p-linear in the pair index a + q*b, whose 2n
            # digits are those of a followed by those of b.
            self.add_table = self._linear_table([p ** i for i in range(n)] * 2).reshape(q, q)
        else:
            # zech[k] = log(1 + g^k); adding 1 steps the constant digit.
            e = self.exp_table
            self.zech_table = self.log_table[e - e % p + (e + 1) % p]
            self.zech_table[(q - 1) // 2] = -1  # 1 + g^((q-1)/2) = 1 - 1 = 0

    def _frobenius_trace(self, a: np.ndarray) -> np.ndarray:
        """a + a^p + ... + a^(p^(n-1)) in field arithmetic."""
        tr = np.zeros_like(a)
        for _ in range(self.n):
            tr = self.add_arrays(tr, a)
            a = self.pow_arrays(a, self.p)
        return tr

    def _build_trace_and_char(self) -> None:
        # The trace is F_p-linear: tabulate it from the traces of the basis.
        basis = self.p ** np.arange(self.n, dtype=np.int64)
        traces = self._frobenius_trace(basis).tolist()
        self.trace_table = self._linear_table(traces).astype(np.int64)
        self.char_table = np.exp(2j * np.pi * np.arange(self.p) / self.p)

    def _validate(self) -> None:
        q = self.q
        nz = np.arange(1, q)
        if not np.all(self.mul_arrays(nz, self.inv_table[nz]) == 1):
            raise AssertionError("inverse table failed a*inv(a) == 1")
        # The trace table is linear by construction; check it against the
        # Frobenius sum on every element, or on a fixed sample above
        # MUL_TABLE_MAX_Q.
        a = np.arange(q, dtype=np.int64)
        if q > MUL_TABLE_MAX_Q:
            a = np.random.default_rng(0).integers(0, q, MUL_TABLE_MAX_Q)
        if not np.array_equal(self._frobenius_trace(a), self.trace_table[a]):
            raise AssertionError("trace table disagrees with the Frobenius sum")
        counts = np.bincount(self.trace_table)
        if len(counts) != self.p or not counts.all():
            raise AssertionError("trace is not surjective onto F_p")

    # -- scalar operations ---------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_arrays(a, b))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, int(self.neg_table[b]))

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_arrays(a, b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        return int(self.pow_arrays(a, e))

    def trace(self, a: int) -> int:
        return int(self.trace_table[a])

    def chi(self, a: int) -> complex:
        """Additive character exp(2*pi*i*trace(a)/p)."""
        return complex(self.char_table[self.trace_table[a]])

    # -- vectorized operations ------------------------------------------

    def _table_at(self, table: np.ndarray, a, b):
        """table[a, b] as int64 for a narrow q x q table and element indices
        a, b: one flat index gathers faster than numpy's two-index form on
        broadcast shapes."""
        return table.reshape(-1)[np.asarray(a, dtype=np.int64) * self.q + b].astype(np.int64)

    def add_arrays(self, a, b):
        if self.n == 1:
            return (np.asarray(a) + np.asarray(b)) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.add_table is not None:
            return self._table_at(self.add_table, a, b)
        # g^i + g^j = g^(i + zech[j - i]) for units.
        a, b = np.asarray(a), np.asarray(b)
        la = self.log_table[a]
        z = self.zech_table[(self.log_table[b] - la) % (self.q - 1)]
        out = np.where(z < 0, 0, self.exp_table[(la + z) % (self.q - 1)])
        return np.where(a == 0, b, np.where(b == 0, a, out))

    def mul_arrays(self, a, b):
        if self.mul_table is not None:
            return self._table_at(self.mul_table, a, b)
        a = np.asarray(a)
        b = np.asarray(b)
        out = self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def pow_arrays(self, a, e: int):
        a = np.asarray(a)
        if e == 0:
            return np.ones_like(a)
        out = self.exp_table[(self.log_table[a] * e) % (self.q - 1)]
        return np.where(a == 0, 0, out)

    def chi_arrays(self, a) -> np.ndarray:
        return self.char_table[self.trace_table[a]]

    # -- misc -------------------------------------------------------------

    def descriptor(self) -> dict:
        return {"p": self.p, "n": self.n, "q": self.q, "modulus": list(self.modulus)}

    def __repr__(self) -> str:
        return f"Field(p={self.p}, n={self.n}, q={self.q})"


def field_order(p: int, n: int, *, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """q = p^n, after the argument checks of `make_field`, which build
    nothing: p prime, n >= 1 and q within size_cap."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"p={p} is not prime")
    if not isinstance(n, int) or n < 1:
        raise DegreeOutOfRangeError(f"extension degree n={n} must be >= 1")
    if p ** n > size_cap:
        raise FieldTooLargeError(f"q = {p}^{n} exceeds the size cap {size_cap}")
    return p ** n


def make_field(p: int, n: int, *, size_cap: int = DEFAULT_SIZE_CAP,
               _modulus: tuple[int, ...] | None = None) -> Field:
    """Build GF(p^n) with the canonical (lexicographically least) modulus.

    `_modulus` is a test hook: an injected modulus is still checked for
    irreducibility and rejected hard if it fails.
    """
    field_order(p, n, size_cap=size_cap)
    if _modulus is not None:
        m = [int(c) % p for c in _modulus]
        if len(m) != n + 1 or m[-1] != 1:
            raise ReducibleModulusError(f"modulus must be monic of degree {n}")
        if not _is_irreducible(m, p):
            raise ReducibleModulusError(f"modulus {m} is reducible over F_{p}")
        modulus = tuple(m)
    else:
        modulus = _least_irreducible(p, n)
    return Field(p, n, modulus)


def subfield_indices(field: Field, m: int) -> np.ndarray:
    """Indices of the subfield GF(p^m), i.e. the fixed points of x -> x^(p^m)."""
    if field.n % m != 0:
        raise ValueError(f"GF({field.p}^{m}) is not a subfield of GF({field.p}^{field.n})")
    a = np.arange(field.q)
    return a[field.pow_arrays(a, field.p ** m) == a]


def sqrt_subfield_indices(field: Field) -> np.ndarray:
    """Indices of the subfield of size sqrt(q); requires even extension degree."""
    if field.n % 2 != 0:
        raise NoProperSubfieldError(
            f"GF({field.p}^{field.n}) has no subfield of size sqrt(q)")
    return subfield_indices(field, field.n // 2)
