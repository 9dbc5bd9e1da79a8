"""The `selftest` command: field axioms and transform identities on a
fixed roster of small fields, on random vectors drawn from one stream."""

from __future__ import annotations

import numpy as np

from .fourier import (
    char_matrix,
    diff_hat_close,
    fourier_forward,
    fourier_forward_direct,
    fourier_invert,
    plancherel_check,
)
from .gf import Field
from .harness import TAG_SELFTEST, ExperimentSpec, RunReport, get_field
from .incidence import PointSet, difference_counts

SELFTEST_ROSTER = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                   (2, 3), (3, 2), (13, 1), (2, 4), (5, 2))


def _selftest_field(field: Field) -> dict:
    q = field.q
    results = {}
    a = np.arange(q)

    w = char_matrix(field)
    rows = w.sum(axis=1)
    ortho = abs(rows[0] - q) <= 1e-9 * q and (
        q == 1 or float(np.max(np.abs(rows[1:]))) <= 1e-9 * q)
    results["orthogonality"] = bool(ortho)

    ab = field.add_arrays(a[:, None], a[None, :])
    results["add_commutative"] = bool(np.array_equal(ab, ab.T))
    mul_ab = field.mul_arrays(a[:, None], a[None, :])
    results["mul_commutative"] = bool(np.array_equal(mul_ab, mul_ab.T))
    aa, bb, cc = a[:, None, None], a[None, :, None], a[None, None, :]
    results["add_associative"] = bool(np.array_equal(
        field.add_arrays(field.add_arrays(aa, bb), cc),
        field.add_arrays(aa, field.add_arrays(bb, cc))))
    results["mul_associative"] = bool(np.array_equal(
        field.mul_arrays(field.mul_arrays(aa, bb), cc),
        field.mul_arrays(aa, field.mul_arrays(bb, cc))))
    results["distributive"] = bool(np.array_equal(
        field.mul_arrays(aa, field.add_arrays(bb, cc)),
        field.add_arrays(field.mul_arrays(aa, bb), field.mul_arrays(aa, cc))))
    results["identities"] = bool(
        np.array_equal(field.add_arrays(a, 0), a)
        and np.array_equal(field.mul_arrays(a, 1), a)
        and np.all(field.mul_arrays(a, 0) == 0))
    nz = a[1:]
    results["inverses"] = bool(q == 1 or np.all(
        field.mul_arrays(nz, field.inv_table[nz]) == 1))
    results["frobenius"] = bool(np.array_equal(
        field.pow_arrays(field.add_arrays(a[:, None], a[None, :]), field.p),
        field.add_arrays(field.pow_arrays(a, field.p)[:, None],
                         field.pow_arrays(a, field.p)[None, :])))
    results["trace_surjective"] = bool(
        len(np.unique(field.trace_table)) == field.p)
    return results


def _selftest_transforms(field: Field, d: int, draws: np.ndarray) -> dict:
    q = field.q
    size = q ** d
    results = {}
    # The four bytes of a point's first draw are the real and imaginary
    # parts of f and g there.
    parts = (draws[:size, None] >> np.arange(0, 32, 8)) % 256 - 127.5
    f, g = parts[:, 0] + 1j * parts[:, 1], parts[:, 2] + 1j * parts[:, 3]
    back = fourier_invert(field, d, fourier_forward(field, d, f))
    results["inversion_roundtrip"] = bool(
        float(np.max(np.abs(back - f))) <= 1e-9 * max(1.0, float(np.max(np.abs(f)))))

    lhs, rhs = plancherel_check(field, d, f, g)
    results["plancherel_random"] = bool(abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs)))

    # The subset: the points of the least second draws.
    e_bits = np.zeros(size, dtype=bool)
    e_bits[np.argsort(draws[size:], kind="stable")[:max(1, min(size // 2, 48))]] = True
    lhs, rhs = plancherel_check(field, d, e_bits, e_bits)
    results["plancherel_indicator"] = bool(abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs)))

    e = PointSet(field, d, e_bits)
    hats = fourier_forward(field, d, np.stack([difference_counts(e), e_bits]))
    results["diff_convolution_hat"] = bool(diff_hat_close(hats[0], hats[1], size))

    if size ** 2 <= 3 ** 12:
        fast = fourier_forward(field, d, f)
        direct = fourier_forward_direct(field, d, f)
        results["forward_vs_direct"] = bool(float(np.max(np.abs(fast - direct))) <= 1e-9)
    return results


def run_selftest(spec: ExperimentSpec) -> RunReport:
    report = RunReport("selftest", spec.echo(), None)
    fields_meta = []
    failures = []
    passed = checked = 0
    # Two draws per point of every space, from one stream in one call: a
    # call costs about as much for one draw as for thousands.
    from .sampling import Streams
    sizes = [2 * p ** (n * d) for p, n in SELFTEST_ROSTER for d in (1, 2, 3)]
    draws = iter(np.split(Streams(spec.seed, [(0, 0, TAG_SELFTEST)]).integers(
        0, 1 << 32, sum(sizes))[0], np.cumsum(sizes)[:-1]))
    for p, n in SELFTEST_ROSTER:
        field = get_field(p, n)
        fields_meta.append(field.descriptor())
        results = _selftest_field(field)
        for d in (1, 2, 3):
            for name, ok in _selftest_transforms(field, d, next(draws)).items():
                results[f"{name}_d{d}"] = ok
        for name, ok in results.items():
            checked += 1
            passed += ok
            if not ok:
                failures.append({"q": field.q, "check": name})
    report.tallies = {"checked": checked, "passed": passed}
    report.counterexamples = sorted(failures, key=lambda c: (c["q"], c["check"]))
    report.extras = {"roster": fields_meta}
    report.flag_counterexamples()
    return report
