"""The one rounding rule: `fourier.transform_error` and `within_rounding`.

Every verdict read off a complex128 transform holds it to an integer array
(or, for `forward_vs_direct`, to the direct transform) under the a-priori
bound.  The bound assumes that each entry of `Field.char_table` is within
27u of its root of unity, which is checked here against mpmath.  Each of
the nine comparisons is checked by mutation: unperturbed it passes, and
with one compared value moved by twice its bound it fails (`nu_spectral`
raises).  A `geometry` run whose bound would reach 1/2 is refused before
any count.
"""

import json
import pathlib

import mpmath
import numpy as np
import pytest

import fqcover.fourier as fourier
import fqcover.geometry as geometry
import fqcover.incidence as incidence
import fqcover.selftest as selftest
from fqcover import cli
from fqcover.gf import make_field
from fqcover.harness import get_field
from fqcover.incidence import PointSet, SpectralMismatchError, nu_bruteforce, nu_spectral
from numpy_oracle import stream

U = 2.0 ** -53
DIGEST_SPECS = json.loads(
    (pathlib.Path(__file__).resolve().parent / "report_digests.json").read_text())


def _digest_primes():
    return {int(s["argv"][s["argv"].index("--p") + 1]) for s in DIGEST_SPECS
            if "--p" in s["argv"]}


def test_char_table_entries_are_within_27u_of_their_roots_of_unity():
    primes = {p for p, _ in selftest.SELFTEST_ROSTER} | _digest_primes() | {1021, 4093}
    with mpmath.workprec(113):
        for p in sorted(primes):
            table = get_field(p, 1).char_table
            worst = max(abs(mpmath.mpc(z.real, z.imag) - mpmath.expjpi(mpmath.mpf(2 * j) / p))
                        for j, z in enumerate(table.tolist()))
            assert worst <= 27 * U, (p, float(worst / U))


def test_within_rounding_holds_at_its_bound_and_refuses_half():
    exact = np.array([[3, -5, 0], [7, 0, 1]])
    bound = np.array([2.0 ** -30, 2.0 ** -20])
    values = exact + 1j * bound[:, None]
    assert fourier.within_rounding(values, exact, bound).tolist() == [True, True]
    values[1, 2] += bound[1]
    assert fourier.within_rounding(values, exact, bound).tolist() == [True, False]
    assert fourier.within_rounding(values[0], exact[0], bound[0])
    with pytest.raises(ValueError, match="reaches 1/2"):
        fourier.within_rounding(values, exact, [0.1, 0.5])


def _moving(monkeypatch, modules, target):
    """Patch within_rounding in modules so that its call number target (from
    0) sees its first compared value moved by twice that value's bound;
    return the list of the calls' bounds."""
    real, bounds = fourier.within_rounding, []

    def compare(values, exact, bound):
        if len(bounds) == target:
            values = np.array(values, dtype=np.complex128)
            values[(0,) * values.ndim] += 2 * np.asarray(bound).flat[0]
        bounds.append(bound)
        return real(values, exact, bound)
    for module in modules:
        monkeypatch.setattr(module, "within_rounding", compare)
    return bounds


SELFTEST_COMPARISONS = {"inversion_roundtrip", "plancherel_random", "plancherel_indicator",
                        "diff_convolution_hat", "forward_vs_direct"}


@pytest.mark.parametrize("p,n,d", [(3, 1, 2), (2, 2, 2), (5, 1, 1)])
def test_each_selftest_comparison_fails_when_one_value_moves_twice_its_bound(
        monkeypatch, p, n, d):
    field = get_field(p, n)
    draws = stream(91, field.q, d, 40).integers(0, 1 << 32, 2 * field.q ** d)
    bounds = _moving(monkeypatch, [selftest], -1)
    assert selftest._selftest_transforms(field, d, draws) == dict.fromkeys(
        SELFTEST_COMPARISONS, True)
    assert len(bounds) == 5 and 0 < min(bounds) and max(bounds) < 1e-6
    failed = []
    for target in range(5):
        with monkeypatch.context() as m:
            _moving(m, [selftest], target)
            results = selftest._selftest_transforms(field, d, draws)
        failed += [name for name, ok in results.items() if not ok]
    assert sorted(failed) == sorted(SELFTEST_COMPARISONS)


def test_orthogonality_fails_when_one_trace_moves():
    field = make_field(5, 1)
    assert selftest._selftest_field(field)["orthogonality"]
    field.trace_table = field.trace_table.copy()
    field.trace_table[3] = (field.trace_table[3] + 1) % field.p
    assert not selftest._selftest_field(field)["orthogonality"]


@pytest.mark.parametrize("p,n,d", [(5, 1, 2), (2, 2, 3)])
def test_each_identity_comparison_fails_when_one_value_moves_twice_its_bound(
        monkeypatch, p, n, d):
    field = get_field(p, n)
    size = field.q ** d
    flats = np.stack([1 + np.sort(stream(92, r, d, 41).choice(size - 1, 9, replace=False))
                      for r in range(3)])
    stack = PointSet.from_flat(field, d, flats)
    checks = ("identities",)
    bounds = _moving(monkeypatch, [geometry], -1)
    checked, passed = geometry._geometry_checks(field, d, stack, checks)["identities"]
    assert checked.all() and passed.tolist() == [True] * 3
    assert len(bounds) == 2
    for target in range(2):
        with monkeypatch.context() as m:
            _moving(m, [geometry], target)
            checked, passed = geometry._geometry_checks(field, d, stack, checks)["identities"]
        assert checked.all() and passed.tolist() == [False, True, True], target


def test_nu_spectral_raises_when_one_value_moves_twice_its_bound(monkeypatch):
    field = get_field(13, 1)
    e = PointSet.from_flat(field, 2, np.sort(stream(93, 13, 2, 42).choice(169, 60, replace=False)))
    _moving(monkeypatch, [fourier], -1)
    assert nu_spectral(e).tolist() == nu_bruteforce(e).tolist()
    _moving(monkeypatch, [fourier], 0)
    with pytest.raises(SpectralMismatchError, match="rounding bound"):
        nu_spectral(e)


@pytest.mark.parametrize("args", [
    ["--checks", "identities"],
    ["--checks", "remainder"],
    ["--mode", "structured", "--sizes", "1..3"],
])
def test_geometry_refuses_a_bound_of_half_before_any_count(monkeypatch, tmp_path, capsys, args):
    def count(*args, **kwargs):
        raise AssertionError("a count was taken")
    monkeypatch.setattr(fourier, "transform_error", lambda q, d, mass: 0.5)
    for module, name in [(geometry, "_campaign"), (incidence, "nu"),
                         (incidence, "line_counts_all"), (geometry, "hyperplane_sum"),
                         (geometry, "difference_counts")]:
        monkeypatch.setattr(module, name, count)
    out = tmp_path / "report.json"
    assert cli.main(["geometry", "--p", "3", "--d", "2", *args, "--out", str(out)]) == 4
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and "1/2" in captured.err


class _Ran(Exception):
    pass


def test_geometry_refusal_takes_the_bounds_of_the_checks_it_runs(monkeypatch, capsys):
    # Sets of 2e5 points in GF(512)^2: the identity bound is about 0.03, but
    # nu_spectral's s-sums of 2e5 terms take its bound past 1/2.
    def ran(*args):
        raise _Ran
    monkeypatch.setattr(geometry, "_campaign", ran)
    argv = ["geometry", "--p", "2", "--n", "9", "--d", "2", "--sizes", "200000..200000",
            "--samples", "1", "--checks"]
    with pytest.raises(_Ran):
        cli.main(argv + ["identities"])
    assert cli.main(argv + ["identities,remainder"]) == 4
    assert "1/2 at 200000 points" in capsys.readouterr().err
