"""Fourier analysis on F_q^d: transform, inversion, Plancherel.

A function f: F_q^d -> C is a plain array of its q^d values, and a stack
of them an array with leading stack axes; the transforms take any such
array with the points on its last axis, act on that axis only and return
complex128 arrays.  Points of F_q^d are flat indices: the point with
coordinates (x_0, ..., x_{d-1}) has flat index sum_i x_i * q^i, where each
x_i is a field element index.
`point_dot`, `point_add` and `point_scale` are the one place that does
arithmetic on flat indices.  Each works coordinate by coordinate with the
field's array operations, and callers split a pair grid into row blocks
(`row_blocks`), each set of a stack on its own.  The point tables of small
spaces, built from these kernels, belong to `incidence`.

Normalization: the forward transform carries the q^{-d} factor,

    fhat(m) = q^{-d} * sum_x chi(-x.m) f(x),

and inversion carries none, f(x) = sum_m chi(x.m) fhat(m).  Plancherel is
then sum_m fhat(m) conj(ghat(m)) = q^{-d} sum_x f(x) conj(g(x)).  All the
incidence constants downstream (q^{d-1}, q^{2d-1}, ...) assume exactly
this convention.

Verdicts hold the complex128 transforms to integers under `transform_error`.
"""

from __future__ import annotations

import numpy as np

from .gf import Field


# Byte cap on one pairwise array of the point kernel below and of the
# product sets and sumsets of covering (per row block), and on all the
# arrays of one covering.covers_units_block call together.  Larger blocks
# save little call overhead and grow the peak resident memory.
DENSE_BLOCK_BYTES = 1 << 18


class DimensionMismatchError(ValueError):
    pass


def coords_to_flat(q: int, coords) -> int:
    return int(sum(int(c) * q ** i for i, c in enumerate(coords)))


def flat_to_coords(q: int, d: int, flat: int) -> tuple[int, ...]:
    return tuple((flat // q ** i) % q for i in range(d))


def dot(field: Field, x, y) -> int:
    """Bilinear dot product sum_i x_i * y_i of two coordinate sequences."""
    if len(x) != len(y):
        raise DimensionMismatchError(f"dot of points with dims {len(x)} and {len(y)}")
    acc = 0
    for xi, yi in zip(x, y):
        acc = field.add(acc, field.mul(int(xi), int(yi)))
    return acc


def _coord(q: int, flats, i: int):
    return flats // q ** i % q


def point_dot(field: Field, d: int, x, y):
    """x.y for broadcastable arrays x and y of flat indices."""
    q = field.q
    acc = field.mul_arrays(_coord(q, x, 0), _coord(q, y, 0))
    for i in range(1, d):
        acc = field.add_arrays(acc, field.mul_arrays(_coord(q, x, i), _coord(q, y, i)))
    return acc


def _map_coords(field: Field, d: int, op, x, y, *, scalar: bool = False):
    """flat(op(x_i, y_i) for every coordinate i), or flat(op(x_i, y)) for
    field elements y if scalar."""
    q = field.q
    out = op(_coord(q, x, 0), y if scalar else _coord(q, y, 0))
    for i in range(1, d):
        out = out + op(_coord(q, x, i), y if scalar else _coord(q, y, i)) * q ** i
    return out


def point_add(field: Field, d: int, x, y):
    """flat(x + y) for broadcastable arrays x and y of flat indices."""
    return _map_coords(field, d, field.add_arrays, x, y)


def point_scale(field: Field, d: int, x, s):
    """flat(s * x) for broadcastable arrays x of flat indices and s of
    field elements."""
    return _map_coords(field, d, field.mul_arrays, x, s, scalar=True)


def row_blocks(rows: int, cols: int, itemsize: int = 16) -> list[slice]:
    """Row slices of a rows x cols pair grid such that every pairwise array
    over a block, of int64 element indices or complex128 values, or of
    elements of itemsize bytes, stays under DENSE_BLOCK_BYTES; at least
    one row."""
    step = max(1, DENSE_BLOCK_BYTES // (itemsize * max(cols, 1)))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def char_matrix(field: Field) -> np.ndarray:
    """W[a, b] = chi(-a*b), the kernel of the one-dimensional transform."""
    if field._char_matrix is None:
        a = np.arange(field.q)
        prod = field.mul_arrays(a[:, None], a[None, :])
        field._char_matrix = field.chi_arrays(field.neg_table[prod])
    return field._char_matrix


def _transform(field: Field, d: int, values, w: np.ndarray, scale) -> np.ndarray:
    """Apply the q x q kernel w along every coordinate axis of values (the
    points on its last axis), then scale.

    Each round transforms the leading coordinate (the most significant
    digit of the flat index) of every function of the stack with one
    matmul and rotates it to the end, so d rounds restore the order.
    """
    q = field.q
    values = np.asarray(values, dtype=np.complex128)
    if values.shape[-1:] != (q ** d,):
        raise ValueError("values must be an array of length q^d along its last axis")
    arr = values.reshape(-1, q, q ** (d - 1))
    for _ in range(d):
        arr = np.matmul(w, arr).transpose(0, 2, 1).reshape(-1, q, q ** (d - 1))
    arr = arr.reshape(values.shape)
    arr *= scale
    return arr


def fourier_forward(field: Field, d: int, values) -> np.ndarray:
    """fhat(m) = q^{-d} sum_x chi(-x.m) f(x), factorized axis by axis."""
    return _transform(field, d, values, char_matrix(field), field.q ** (-d))


def fourier_invert(field: Field, d: int, values) -> np.ndarray:
    """f(x) = sum_m chi(x.m) fhat(m)."""
    return _transform(field, d, values, np.conj(char_matrix(field)), 1)


def fourier_forward_direct(field: Field, d: int, values) -> np.ndarray:
    """O(q^{2d}) direct double sum; retained as the oracle for the fast path."""
    q = field.q
    size = q ** d
    if size * size > 8_000_000:
        raise ValueError("direct transform oracle restricted to small q^d")
    flats = np.arange(size)
    out = np.empty(size, dtype=np.complex128)
    for rows in row_blocks(size, size):
        dots = point_dot(field, d, flats[rows, None], flats)
        out[rows] = field.chi_arrays(field.neg_table[dots]) @ values
    return out * q ** (-d)


def transform_error(q, d, mass):
    """2 d (q + 24) u mass, u = 2^-53, bounds the rounding error of each
    value of a d-round `_transform`, with its scale, of values whose
    absolute values sum to at most mass, or to q^d mass for the forward
    transform; q, d and mass may be arrays.  Each `Field.char_table` entry
    lies within 27u of its root of unity (four roundings of the angle, and
    an ulp each for cos and sin), and a complex inner product of length q
    errs by at most g sum |w| |x|, g = sqrt(2) gamma_{q+2} (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.6).
    The exact values of the rounds are at most mass, so by induction d
    rounds err by at most ((1 + 27u)^d (1 + g)^d - 1) mass, and the scale
    adds 3u: under (1.45 d q + 30.2 d + 3) u mass for d q < 10^12, which
    leaves a slack of 4/3 for the rounding of mass and bound and the
    second-order terms of the compositions built on it."""
    return 2 * d * (q + 24) * 2.0 ** -53 * mass


def within_rounding(values, exact, bound) -> np.ndarray:
    """Per array along the last axis, whether values is within bound (one,
    or one per array) of exact, integers or a second computed array; a bound
    of 1/2 or more, which no longer singles out integers, raises ValueError."""
    bound = np.asarray(bound, dtype=float)
    if np.any(bound >= 0.5):
        raise ValueError(f"rounding bound {float(np.max(bound)):.3g} reaches 1/2")
    return np.all(np.abs(values - exact) <= bound[..., None], axis=-1)


def plancherel_check(field: Field, d: int, f, g) -> tuple[complex, complex, float]:
    """(lhs, rhs, bound): both sides of q^d sum_m fhat conj(ghat) =
    sum_x f conj(g), rhs exact for small Gaussian-integer f and g, and a
    bound on the rounding error of lhs.  fhat errs by transform_error(q, d,
    M_f) / q^d a value, M_f = sum |f|, and sum_m |ghat| <= ||g||_2, so
    the transforms bring in transform_error(q, d, M_f ||g|| + M_g ||f||);
    the sum of the products, scaled, is a round of length q^d on mass
    ||f|| ||g||."""
    f, g = (np.asarray(v, dtype=np.complex128) for v in (f, g))
    (mf, nf), (mg, ng) = ((np.abs(v).sum(), np.linalg.norm(v)) for v in (f, g))
    fhat, ghat = fourier_forward(field, d, np.stack([f, g]))
    size = field.q ** d
    bound = transform_error(field.q, d, mf * ng + mg * nf) + transform_error(size, 1, nf * ng)
    return complex(np.sum(fhat * np.conj(ghat)) * size), complex(np.sum(f * np.conj(g))), bound
