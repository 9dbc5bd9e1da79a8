import cmath

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fqcover.fourier import (
    DimensionMismatchError,
    coords_to_flat,
    dot,
    flat_to_coords,
    fourier_forward,
    fourier_forward_direct,
    fourier_invert,
    plancherel_check,
)
from fqcover.harness import get_field
from fqcover.incidence import PointSet, difference_counts
from numpy_oracle import stream


def delta(field, d, flat):
    """The indicator of one point."""
    v = np.zeros(field.q ** d, dtype=np.complex128)
    v[flat] = 1.0
    return v


def dft_oracle(field, d, values):
    """Independent double-sum transform: explicit character values via cmath,
    scalar field ops only."""
    q, p = field.q, field.p
    size = q ** d
    out = []
    for m in range(size):
        mc = flat_to_coords(q, d, m)
        acc = 0j
        for x in range(size):
            xc = flat_to_coords(q, d, x)
            dv = 0
            for i in range(d):
                dv = field.add(dv, field.mul(xc[i], mc[i]))
            acc += cmath.exp(2j * cmath.pi * field.trace(field.neg(dv)) / p) \
                * complex(values[x])
        out.append(acc / size)
    return np.array(out)


# ---------------------------------------------------------------------------
# flat index round trips and dot products
# ---------------------------------------------------------------------------

@given(st.integers(0, 5 ** 3 - 1))
def test_flat_coords_roundtrip(flat):
    assert coords_to_flat(5, flat_to_coords(5, 3, flat)) == flat


def test_dot_examples():
    field = get_field(5, 1)
    assert dot(field, (1, 0), (1, 0)) == 1
    assert dot(field, (2, 3), (4, 1)) == 1  # 8 + 3 = 11 = 1 mod 5
    for x in [(0, 0), (1, 4), (3, 3)]:
        assert dot(field, x, (0, 0)) == 0
    with pytest.raises(DimensionMismatchError):
        dot(field, (1, 2), (1, 2, 3))


def test_dot_symmetric_gf4():
    field = get_field(2, 2)
    for x in range(4):
        for y in range(4):
            assert dot(field, (x, y), (y, x)) == dot(field, (y, x), (x, y))


# ---------------------------------------------------------------------------
# forward transform
# ---------------------------------------------------------------------------

def test_forward_of_origin_indicator_is_flat():
    field = get_field(5, 1)
    fhat = fourier_forward(field, 2, delta(field, 2, 0))
    assert np.allclose(fhat, 1 / 25)


def test_direct_transform_refuses_a_space_past_its_size_limit():
    # 3^8 = 6561 points: 6561^2 terms pass the oracle's 8e6.
    with pytest.raises(ValueError, match="small q"):
        fourier_forward_direct(get_field(3, 1), 8, np.zeros(3 ** 8))


def test_forward_of_constant_is_delta_at_zero():
    # orthogonality in transform form: the constant function concentrates at 0
    field = get_field(3, 2)
    fhat = fourier_forward(field, 2, np.ones(81))
    assert abs(fhat[0] - 1) <= 1e-12
    assert np.max(np.abs(fhat[1:])) <= 1e-12


@pytest.mark.parametrize("p,n,d", [(3, 1, 2), (2, 2, 2), (5, 1, 2),
                                   (2, 3, 1), (7, 1, 1), (3, 2, 1), (2, 1, 3)])
def test_forward_matches_independent_oracle(p, n, d):
    field = get_field(p, n)
    rng = stream(99, field.q, d, 17)
    vals = rng.standard_normal(field.q ** d) + 1j * rng.standard_normal(field.q ** d)
    fast = fourier_forward(field, d, vals)
    assert np.max(np.abs(fast - dft_oracle(field, d, vals))) <= 1e-9


@pytest.mark.parametrize("p,n,d", [(3, 1, 2), (2, 2, 2), (3, 1, 3)])
def test_forward_matches_retained_direct_evaluator(p, n, d):
    field = get_field(p, n)
    rng = stream(7, field.q, d, 18)
    vals = rng.standard_normal(field.q ** d) + 1j * rng.standard_normal(field.q ** d)
    assert np.max(np.abs(fourier_forward(field, d, vals)
                         - fourier_forward_direct(field, d, vals))) <= 1e-9


@pytest.mark.parametrize("p,n,d", [(3, 1, 2), (2, 2, 2), (3, 1, 3), (5, 1, 1)])
def test_stacked_forward_matches_direct_evaluator_per_function(p, n, d):
    """A 2 x 3 stack goes through one transform; each function of it must
    equal its own direct double sum, and inversion must give the stack back."""
    field = get_field(p, n)
    size = field.q ** d
    rng = stream(8, field.q, d, 19)
    vals = rng.standard_normal((2, 3, size)) + 1j * rng.standard_normal((2, 3, size))
    fast = fourier_forward(field, d, vals)
    assert fast.shape == vals.shape
    for idx in np.ndindex(2, 3):
        direct = fourier_forward_direct(field, d, vals[idx])
        assert np.max(np.abs(fast[idx] - direct)) <= 1e-9
    back = fourier_invert(field, d, fast)
    assert np.max(np.abs(back - vals)) <= 1e-9


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_inversion_recovers_singletons_exactly():
    field = get_field(7, 1)
    for v in [0, 3, 6]:
        f = delta(field, 1, v)
        back = fourier_invert(field, 1, fourier_forward(field, 1, f))
        assert np.max(np.abs(back - f)) <= 1e-12


@pytest.mark.parametrize("p,n,d", [(7, 1, 1), (2, 2, 2)])
def test_inversion_roundtrip_random(p, n, d):
    field = get_field(p, n)
    size = field.q ** d
    for trial in range(10):
        rng = stream(5, trial, d, 19)
        vals = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
        back = fourier_invert(field, d, fourier_forward(field, d, vals))
        assert np.max(np.abs(back - vals)) <= 1e-9


def test_invert_of_flat_spectrum_is_origin_delta():
    field = get_field(5, 1)
    back = fourier_invert(field, 2, np.full(25, 1 / 25))
    expect = np.zeros(25, dtype=complex)
    expect[0] = 1
    assert np.max(np.abs(back - expect)) <= 1e-12


# ---------------------------------------------------------------------------
# Plancherel
# ---------------------------------------------------------------------------

def test_plancherel_indicator_mass():
    field = get_field(5, 1)
    e = PointSet.from_flat(field, 2, [1, 2, 3, 5, 8, 13, 21, 24])
    lhs, rhs, bound = plancherel_check(field, 2, e.bits, e.bits)
    assert rhs == 8
    assert abs(lhs - rhs) <= bound


def test_plancherel_constants():
    field = get_field(3, 1)
    lhs, rhs, _ = plancherel_check(field, 2, np.ones(9), np.ones(9))
    assert lhs == pytest.approx(9)
    assert rhs == 9


def test_plancherel_random_pairs():
    field = get_field(3, 1)
    for trial in range(20):
        rng = stream(11, trial, 2, 20)
        f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        lhs, rhs, _ = plancherel_check(field, 2, f, g)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


# ---------------------------------------------------------------------------
# difference counts
# ---------------------------------------------------------------------------

def difference_oracle(field, d, flats):
    # direct double loop over the definition #{(y, y') in E x E : y - y' = m}
    q = field.q
    out = [0] * q ** d
    for y in flats:
        yc = flat_to_coords(q, d, y)
        for y2 in flats:
            y2c = flat_to_coords(q, d, y2)
            out[coords_to_flat(q, [field.sub(a, b) for a, b in zip(yc, y2c)])] += 1
    return out


def test_convolve_singleton():
    field = get_field(5, 1)
    counts = difference_counts(PointSet.from_flat(field, 2, [7]))
    assert counts.dtype == np.int64
    assert counts.tolist() == [1] + [0] * 24


def test_convolve_diagonal_and_mass():
    field = get_field(5, 1)
    rng = stream(3, 0, 2, 21)
    counts = difference_counts(
        PointSet.from_flat(field, 2, np.sort(rng.choice(25, 6, replace=False))))
    assert counts[0] == 6       # y = y' pairs
    assert counts.sum() == 36   # all ordered pairs


@pytest.mark.parametrize("p,n,d", [(5, 1, 2), (2, 2, 2), (3, 1, 2)])
def test_convolve_matches_double_loop_oracle(p, n, d):
    field = get_field(p, n)
    size = field.q ** d
    rng = stream(4, field.q, d, 22)
    flats = np.sort(rng.choice(size, min(size, 7), replace=False))
    got = difference_counts(PointSet.from_flat(field, d, flats))
    assert got.tolist() == difference_oracle(field, d, flats.tolist())


@pytest.mark.parametrize("p,n,d", [(3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3)])
def test_autoconvolution_hat_identity(p, n, d):
    """Dhat(k) = q^d |Ehat(k)|^2 for D the difference counts of E."""
    field = get_field(p, n)
    size = field.q ** d
    rng = stream(12, field.q, d, 23)
    e = PointSet.from_flat(field, d,
                           np.sort(rng.choice(size, max(1, size // 3), replace=False)))
    dhat = fourier_forward(field, d, difference_counts(e))
    expect = size * np.abs(fourier_forward(field, d, e.bits)) ** 2
    assert np.max(np.abs(dhat - expect)) <= 1e-8 * max(1.0, float(np.max(expect)))


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_transforms_reject_wrong_length():
    field = get_field(3, 1)
    for transform in (fourier_forward, fourier_invert):
        with pytest.raises(ValueError, match="length q\\^d"):
            transform(field, 2, np.zeros(8))
        with pytest.raises(ValueError, match="length q\\^d"):
            transform(field, 2, np.zeros((2, 10)))


@given(st.lists(st.complex_numbers(max_magnitude=1, allow_nan=False,
                                   allow_infinity=False),
                min_size=9, max_size=9))
def test_roundtrip_property_f32(vals):
    field = get_field(3, 1)
    f = np.array(vals, dtype=np.complex128)
    back = fourier_invert(field, 2, fourier_forward(field, 2, f))
    assert np.max(np.abs(back - f)) <= 1e-9
