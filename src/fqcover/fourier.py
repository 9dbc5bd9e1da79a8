"""Fourier analysis on F_q^d: transform, inversion, Plancherel, convolution.

A function f: F_q^d -> C is stored densely as a length-q^d complex array
(`SpectralFn`).  Points of F_q^d are flat indices: the point with
coordinates (x_0, ..., x_{d-1}) has flat index sum_i x_i * q^i, where
each x_i is a field element index.

Normalization: the forward transform carries the q^{-d} factor,

    fhat(m) = q^{-d} * sum_x chi(-x.m) f(x),

and inversion carries none, f(x) = sum_m chi(x.m) fhat(m).  Plancherel is
then sum_m fhat(m) conj(ghat(m)) = q^{-d} sum_x f(x) conj(g(x)).  All the
incidence constants downstream (q^{d-1}, q^{2d-1}, ...) assume exactly
this convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field


class DimensionMismatchError(ValueError):
    pass


def all_coords(field: Field, d: int) -> np.ndarray:
    """[q^d, d] matrix whose row k holds the coordinates of flat index k."""
    cached = field._coords_cache.get(d)
    if cached is None:
        q = field.q
        flat = np.arange(q ** d, dtype=np.int64)
        cached = np.stack([(flat // q ** i) % q for i in range(d)], axis=1)
        field._coords_cache[d] = cached
    return cached


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


def dots_with_all(field: Field, d: int, x_coords) -> np.ndarray:
    """Dot products of a fixed point x against every point of F_q^d."""
    coords = all_coords(field, d)
    acc = np.zeros(field.q ** d, dtype=np.int64)
    for i in range(d):
        acc = field.add_arrays(acc, field.mul_arrays(int(x_coords[i]), coords[:, i]))
    return acc


def translate_flats(field: Field, d: int, v_flat: int) -> np.ndarray:
    """Permutation array T with T[m] = flat(m + v) for all m."""
    q = field.q
    coords = all_coords(field, d)
    v = flat_to_coords(q, d, v_flat)
    acc = np.zeros(q ** d, dtype=np.int64)
    for i in range(d):
        acc += field.add_arrays(coords[:, i], v[i]).astype(np.int64) * q ** i
    return acc


def scalar_mul_flats(field: Field, d: int, s: int) -> np.ndarray:
    """Permutation array S with S[m] = flat(s * m) for all m (s a field scalar)."""
    q = field.q
    coords = all_coords(field, d)
    acc = np.zeros(q ** d, dtype=np.int64)
    for i in range(d):
        acc += field.mul_arrays(s, coords[:, i]).astype(np.int64) * q ** i
    return acc


def char_matrix(field: Field) -> np.ndarray:
    """W[a, b] = chi(-a*b), the kernel of the one-dimensional transform."""
    if field._char_matrix is None:
        a = np.arange(field.q)
        prod = field.mul_arrays(a[:, None], a[None, :])
        field._char_matrix = field.chi_arrays(field.neg_table[prod])
    return field._char_matrix


@dataclass(eq=False)
class SpectralFn:
    """A dense complex-valued function on F_q^d."""

    field: Field
    d: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.field.q ** self.d,):
            raise ValueError("values must be a flat array of length q^d")

    @classmethod
    def zeros(cls, field: Field, d: int) -> "SpectralFn":
        return cls(field, d, np.zeros(field.q ** d, dtype=np.complex128))

    @classmethod
    def constant(cls, field: Field, d: int, c: complex) -> "SpectralFn":
        return cls(field, d, np.full(field.q ** d, c, dtype=np.complex128))

    @classmethod
    def delta(cls, field: Field, d: int, flat: int) -> "SpectralFn":
        v = np.zeros(field.q ** d, dtype=np.complex128)
        v[flat] = 1.0
        return cls(field, d, v)

    @classmethod
    def from_real(cls, field: Field, d: int, real_values) -> "SpectralFn":
        return cls(field, d, np.asarray(real_values, dtype=np.complex128))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def dump_lines(self) -> list[str]:
        """Debug dump, one 'flat_index re im' line per point."""
        return [f"{i} {float(v.real)!r} {float(v.imag)!r}"
                for i, v in enumerate(self.values)]


def _transform(f: SpectralFn, w: np.ndarray, scale) -> SpectralFn:
    """Apply the q x q kernel w along every axis of f, then scale."""
    q, d = f.field.q, f.d
    arr = f.values.reshape((q,) * d)
    for ax in range(d):
        arr = np.moveaxis(np.tensordot(w, arr, axes=(1, ax)), 0, ax)
    return SpectralFn(f.field, d, arr.reshape(-1) * scale)


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
    coords = all_coords(field, d)
    dots = np.zeros((size, size), dtype=np.int64)
    for i in range(d):
        dots = field.add_arrays(dots, field.mul_arrays(coords[:, i][:, None],
                                                       coords[None, :, i]))
    kernel = field.chi_arrays(field.neg_table[dots])
    return SpectralFn(field, d, kernel @ f.values * q ** (-d))


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
    """Difference convolution (f*g)(m) = sum_{y - y' = m} f(y) g(y').

    Computed in the time domain by looping over the support of g, so it
    stays an independent check against the transform-side identity
    Ghat = q^d |Ehat|^2 rather than being derived from it.
    """
    field, d = f.field, f.d
    out = np.zeros(f.size, dtype=np.complex128)
    for y2 in np.nonzero(g.values)[0]:
        out += g.values[y2] * f.values[translate_flats(field, d, int(y2))]
    return SpectralFn(field, d, out)


def diff_convolution_hat_check(f: SpectralFn) -> bool:
    """Whether Ghat = q^d |fhat|^2 for G = f * f, the difference convolution
    of a real-valued f with itself (the Fourier side of nu)."""
    ghat = fourier_forward(convolve_diff(f, f)).values
    expect = f.field.q ** f.d * np.abs(fourier_forward(f).values) ** 2
    err = float(np.max(np.abs(ghat - expect)))
    return err <= 1e-8 * max(1.0, float(np.max(expect)))
