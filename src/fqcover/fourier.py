"""Fourier analysis on F_q^d: transform, inversion, Plancherel, convolution.

A function f: F_q^d -> C is stored densely as a length-q^d complex array
(`SpectralFn`), and a stack of them as an array with leading stack axes;
the transforms and the convolution act on the last axis only.  Points of
F_q^d are flat indices: the point with coordinates (x_0, ..., x_{d-1}) has
flat index sum_i x_i * q^i, where each x_i is a field element index.
`point_dot`, `point_add` and `point_scale` are the one place that does
arithmetic on flat indices.  Where the q^d x q^d pair grid fits one row
block (`row_blocks`), that is q^d <= 128 at the default DENSE_BLOCK_BYTES,
each is one gather from a table of F_q^d built on first use; above it,
each works coordinate by coordinate, and callers split the pair grid into
row blocks (`row_blocks`, `stack_blocks`).

Normalization: the forward transform carries the q^{-d} factor,

    fhat(m) = q^{-d} * sum_x chi(-x.m) f(x),

and inversion carries none, f(x) = sum_m chi(x.m) fhat(m).  Plancherel is
then sum_m fhat(m) conj(ghat(m)) = q^{-d} sum_x f(x) conj(g(x)).  All the
incidence constants downstream (q^{d-1}, q^{2d-1}, ...) assume exactly
this convention.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

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


def _dot_coords(field: Field, d: int, x, y):
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


def _point_table(field: Field, d: int, name: str) -> np.ndarray | None:
    """The int64 table `name` of F_q^d: dot[x, y] = x.y, add[x, y] =
    flat(x + y) and scale[x, s] = flat(s * x).  None unless the q^d x q^d
    pair grid fits one row block under DENSE_BLOCK_BYTES, which is tested
    on every call, so that a patched cap takes effect on a field that
    already holds the tables.  All three are built together on first use,
    coordinate by coordinate, and kept on the field."""
    size = field.q ** d
    if 16 * size * size > DENSE_BLOCK_BYTES:
        return None
    tables = field._coords_cache
    if (d, name) not in tables:
        flats = np.arange(size)
        tables[d, "dot"] = _dot_coords(field, d, flats[:, None], flats)
        tables[d, "add"] = _map_coords(field, d, field.add_arrays, flats[:, None], flats)
        tables[d, "scale"] = _map_coords(field, d, field.mul_arrays, flats[:, None],
                                         np.arange(field.q), scalar=True)
    return tables[d, name]


def _gather(table: np.ndarray, x, y) -> np.ndarray:
    return table.reshape(-1)[np.asarray(x) * table.shape[1] + y]


def point_dot(field: Field, d: int, x, y):
    """x.y for broadcastable arrays x and y of flat indices."""
    table = _point_table(field, d, "dot")
    if table is None:
        return _dot_coords(field, d, x, y)
    return _gather(table, x, y)


def point_add(field: Field, d: int, x, y):
    """flat(x + y) for broadcastable arrays x and y of flat indices."""
    table = _point_table(field, d, "add")
    if table is None:
        return _map_coords(field, d, field.add_arrays, x, y)
    return _gather(table, x, y)


def point_scale(field: Field, d: int, x, s):
    """flat(s * x) for broadcastable arrays x of flat indices and s of
    field elements."""
    table = _point_table(field, d, "scale")
    if table is None:
        return _map_coords(field, d, field.mul_arrays, x, s, scalar=True)
    return _gather(table, x, s)


def row_blocks(rows: int, cols: int) -> list[slice]:
    """Row slices of a rows x cols pair grid such that every pairwise array
    over a block, of int64 element indices or complex128 values, stays
    under DENSE_BLOCK_BYTES; at least one row."""
    step = max(1, DENSE_BLOCK_BYTES // (16 * max(cols, 1)))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def stack_blocks(rows: int, k: int, cols: int) -> Iterator[tuple[slice, slice]]:
    """(sets, items) slices of a rows x k x cols pair grid (rows sets of k
    items, each item paired with cols values) such that every pairwise
    array over a block stays under DENSE_BLOCK_BYTES, as in `row_blocks`:
    whole sets at a time where one set fits, otherwise the item blocks of
    one set at a time."""
    items = row_blocks(k, cols)
    if len(items) > 1:
        yield from ((slice(r, r + 1), i) for r in range(rows) for i in items)
    else:
        yield from ((sets, slice(0, k)) for sets in row_blocks(rows, k * cols))


def char_matrix(field: Field) -> np.ndarray:
    """W[a, b] = chi(-a*b), the kernel of the one-dimensional transform."""
    if field._char_matrix is None:
        a = np.arange(field.q)
        prod = field.mul_arrays(a[:, None], a[None, :])
        field._char_matrix = field.chi_arrays(field.neg_table[prod])
    return field._char_matrix


@dataclass(eq=False)
class SpectralFn:
    """A dense complex-valued function on F_q^d, or a stack of them: the
    last axis of `values` runs over the q^d points."""

    field: Field
    d: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape[-1:] != (self.field.q ** self.d,):
            raise ValueError("values must be an array of length q^d along its last axis")

    @classmethod
    def from_real(cls, field: Field, d: int, real_values) -> "SpectralFn":
        return cls(field, d, np.asarray(real_values, dtype=np.complex128))

    @property
    def size(self) -> int:
        return self.values.shape[-1]


def _transform(f: SpectralFn, w: np.ndarray, scale) -> SpectralFn:
    """Apply the q x q kernel w along every coordinate axis of f, then scale.

    Each round transforms the leading coordinate (the most significant
    digit of the flat index) of every function of the stack with one
    matmul and rotates it to the end, so d rounds restore the order.
    """
    q, d = f.field.q, f.d
    arr = f.values.reshape(-1, q, q ** (d - 1))
    for _ in range(d):
        arr = np.matmul(w, arr).transpose(0, 2, 1).reshape(-1, q, q ** (d - 1))
    return SpectralFn(f.field, d, arr.reshape(f.values.shape) * scale)


def fourier_forward(f: SpectralFn) -> SpectralFn:
    """fhat(m) = q^{-d} sum_x chi(-x.m) f(x), factorized axis by axis."""
    return _transform(f, char_matrix(f.field), f.field.q ** (-f.d))


def fourier_invert(fhat: SpectralFn) -> SpectralFn:
    """f(x) = sum_m chi(x.m) fhat(m)."""
    return _transform(fhat, np.conj(char_matrix(fhat.field)), 1)


def fourier_forward_direct(f: SpectralFn) -> SpectralFn:
    """O(q^{2d}) direct double sum; retained as the oracle for the fast path."""
    field, d = f.field, f.d
    q = field.q
    size = q ** d
    if size * size > 8_000_000:
        raise ValueError("direct transform oracle restricted to small q^d")
    flats = np.arange(size)
    out = np.empty(size, dtype=np.complex128)
    for rows in row_blocks(size, size):
        dots = point_dot(field, d, flats[rows, None], flats)
        out[rows] = field.chi_arrays(field.neg_table[dots]) @ f.values
    return SpectralFn(field, d, out * q ** (-d))


def plancherel_check(f: SpectralFn, g: SpectralFn) -> tuple[complex, complex]:
    """Both sides of sum_m fhat conj(ghat) = q^{-d} sum_x f conj(g).

    Implemented as the sesquilinear form on both sides; for real-valued
    inputs (the indicator functions this library mostly feeds it) the
    conjugation on g is a no-op.
    """
    fhat = fourier_forward(f)
    ghat = fourier_forward(g)
    lhs = complex(np.sum(fhat.values * np.conj(ghat.values)))
    rhs = complex(np.sum(f.values * np.conj(g.values)) * f.field.q ** (-f.d))
    return lhs, rhs


def convolve_diff(f: SpectralFn, g: SpectralFn) -> SpectralFn:
    """Difference convolution (f*g)(m) = sum_{y - y' = m} f(y) g(y'), for
    every function of the stacks f and g (of one shape).

    Computed in the time domain, as sum over y' in supp g of
    g(y') f(m + y'), so it stays an independent check against the
    transform-side identity Ghat = q^d |Ehat|^2 rather than being derived
    from it.  Each row's support is padded with zeros of g to the largest
    support of the stack; their weight 0 masks them.
    """
    field, d, size = f.field, f.d, f.size
    fv, gv = f.values.reshape(-1, size), g.values.reshape(-1, size)
    nonzero = gv != 0
    k = int(nonzero.sum(axis=1).max(initial=0))
    supp = np.argsort(~nonzero, axis=1, kind="stable")[:, :k]
    weights = np.take_along_axis(gv, supp, axis=1)[:, :, None]
    flats = np.arange(size)
    out = np.empty(fv.shape, dtype=np.complex128)
    for sets, items in stack_blocks(len(fv), size, k):
        shifted = point_add(field, d, flats[items, None], supp[sets, None, :])
        shifted += size * np.arange(sets.start, sets.start + len(shifted))[:, None, None]
        out[sets, items] = np.matmul(fv.reshape(-1)[shifted], weights[sets])[..., 0]
    return SpectralFn(field, d, out.reshape(f.values.shape))


def diff_hat_close(ghat: np.ndarray, fhat: np.ndarray, qd: int) -> np.ndarray:
    """Per function of a stack, whether ghat = qd |fhat|^2 to within a
    relative 1e-8, for ghat the transform of f * f and fhat that of f."""
    expect = qd * np.abs(fhat) ** 2
    err = np.max(np.abs(ghat - expect), axis=-1)
    return err <= 1e-8 * np.maximum(1.0, np.max(expect, axis=-1))


def diff_convolution_hat_check(f: SpectralFn) -> bool:
    """Whether Ghat = q^d |fhat|^2 for G = f * f, the difference convolution
    of a real-valued f with itself (the Fourier side of nu)."""
    ghat = fourier_forward(convolve_diff(f, f)).values
    return bool(diff_hat_close(ghat, fourier_forward(f).values, f.size))
