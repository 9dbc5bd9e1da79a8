"""The `selftest` command: field axioms and transform identities on a
fixed roster of small fields, on random vectors drawn from one stream."""

from __future__ import annotations

import numpy as np

from .fourier import (
    fourier_forward,
    fourier_forward_direct,
    fourier_invert,
    plancherel_check,
    transform_error,
    within_rounding,
)
from .gf import Field
from .harness import TAG_SELFTEST, ExperimentSpec, RunReport, _streams, get_field
from .incidence import PointSet, difference_counts, identity_error

SELFTEST_ROSTER = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                   (2, 3), (3, 2), (13, 1), (2, 4), (5, 2))


def _selftest_field(field: Field) -> dict:
    q, p = field.q, field.p
    results = {}
    a = np.arange(q)
    ab = field.add_arrays(a[:, None], a[None, :])
    mul_ab = field.mul_arrays(a[:, None], a[None, :])

    # The characters are orthogonal, sum_b chi(-ab) = q [a = 0], because
    # b -> tr(-ab) takes each value of F_p q/p times for a != 0.
    tr = field.trace_table[field.neg_table[mul_ab]]
    levels = np.bincount((a[:, None] * p + tr).ravel(), minlength=q * p).reshape(q, p)
    results["orthogonality"] = bool(levels[0, 0] == q and np.all(levels[1:] == q // p))

    results["add_commutative"] = bool(np.array_equal(ab, ab.T))
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
    results["inverses"] = bool(np.all(field.mul_arrays(a[1:], field.inv_table[a[1:]]) == 1))
    a_p = field.pow_arrays(a, p)
    results["frobenius"] = bool(np.array_equal(
        field.pow_arrays(ab, p), field.add_arrays(a_p[:, None], a_p[None, :])))
    results["trace_surjective"] = bool(len(np.unique(field.trace_table)) == p)
    return results


def _selftest_transforms(field: Field, d: int, draws: np.ndarray) -> dict:
    """The transform identities, each held to Gaussian integers, or to the
    direct transform, under its rounding bound."""
    q, size = field.q, field.q ** d
    # The four bytes of a point's first draw, doubled and less 255, are the
    # real and imaginary parts of f and g there: odd Gaussian integers.
    parts = 2 * ((draws[:size, None] >> np.arange(0, 32, 8)) % 256) - 255
    f, g = parts[:, 0] + 1j * parts[:, 1], parts[:, 2] + 1j * parts[:, 3]
    mass, fhat = float(np.abs(f).sum()), fourier_forward(field, d, f)
    # The subset: the points of the least second draws.
    e = PointSet.from_flat(field, d, np.argsort(draws[size:], kind="stable")[:min(size // 2, 48)])
    diffs = fourier_invert(field, d, size * np.abs(fourier_forward(field, d, e.bits)) ** 2)
    results = {
        # The round trip is 2d rounds, its scale between them.
        "inversion_roundtrip": within_rounding(fourier_invert(field, d, fhat), f,
                                               transform_error(q, 2 * d, mass)),
        "plancherel_random": within_rounding(*plancherel_check(field, d, f, g)),
        "plancherel_indicator": within_rounding(*plancherel_check(field, d, e.bits, e.bits)),
        # D is the inverse of q^d |Ehat|^2.
        "diff_convolution_hat": within_rounding(diffs, difference_counts(e),
                                                identity_error(q, d, e.count)),
    }
    if size ** 2 <= 3 ** 12:
        # The direct oracle is one inner product of length q^d a value.
        bound = transform_error(q, d, mass / size) + transform_error(size, 1, mass / size)
        results["forward_vs_direct"] = within_rounding(
            fhat, fourier_forward_direct(field, d, f), bound)
    return results


def run_selftest(spec: ExperimentSpec) -> RunReport:
    report = RunReport("selftest", spec.echo(), None)
    fields_meta = []
    failures = []
    passed = checked = 0
    # Two draws per point of every space, from one stream in one call: a
    # call costs about as much for one draw as for thousands.
    sizes = [2 * p ** (n * d) for p, n in SELFTEST_ROSTER for d in (1, 2, 3)]
    draws = iter(np.split(_streams(spec.seed, TAG_SELFTEST, [(0, 0)]).integers(
        0, 1 << 32, sum(sizes))[0], np.cumsum(sizes)[:-1]))
    for p, n in SELFTEST_ROSTER:
        field = get_field(p, n)
        fields_meta.append(field.descriptor())
        results = _selftest_field(field)
        for d in (1, 2, 3):
            for name, ok in _selftest_transforms(field, d, next(draws)).items():
                results[f"{name}_d{d}"] = bool(ok)
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
