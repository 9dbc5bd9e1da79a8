"""Acceptance suite: one test per release criterion, each printing a PASS
line and enforcing its runtime budget.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.
"""

import json
import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from fqcover.covering import (
    dot_product_set,
    dot_set_lower_bound_sides,
    missing_units,
    scalar_cover_threshold,
    sqrt_subfield,
    sumset_of_products,
)
from fqcover.fourier import fourier_forward, fourier_invert, plancherel_check
from fqcover.geometry import _geometry_checks, structured_point_sets
from fqcover.harness import get_field
from fqcover.incidence import (
    PointSet,
    difference_counts,
    line_counts_all,
    nu,
    nu_bruteforce,
    nu_spectral,
    remainder_sides,
    remainder_verdicts,
    second_moment_sides,
)
from conftest import src_env
from numpy_oracle import stream

ROSTER = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
          (2, 3), (3, 2), (13, 1), (2, 4), (5, 2)]

SEED = 20250811


def _random_pointset(field, d, size, index, tag):
    rng = stream(SEED, index, size * 8 + d, tag)
    flats = np.sort(rng.choice(field.q ** d, size, replace=False))
    return PointSet.from_flat(field, d, flats)


def _random_origin_free(field, d, size, index, tag):
    rng = stream(SEED, index, size * 8 + d, tag)
    flats = 1 + np.sort(rng.choice(field.q ** d - 1, size, replace=False))
    return PointSet.from_flat(field, d, flats)


def _structured_roster(max_sets):
    out = []
    for p, n in [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        field = get_field(p, n)
        for d in (2, 3):
            for name, e in structured_point_sets(field, d, SEED):
                out.append((f"q{field.q}_d{d}_{name}", e))
    return out[:max_sets]


def _passline(k, name, detail):
    print(f"\n[acceptance] criterion {k} ({name}): PASS ({detail})")


def test_criterion_1_fourier_identity_suite():
    started = time.monotonic()
    cases = 0
    for p, n in ROSTER:
        field = get_field(p, n)
        q = field.q
        for a in range(q):
            total = sum(field.chi(field.mul(a, t)) for t in range(q))
            expect = q if a == 0 else 0
            assert abs(total - expect) <= 1e-9 * q
        for d in (1, 2, 3):
            size = q ** d
            rng = stream(SEED, q, d, 101)
            vals = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
            back = fourier_invert(field, d, fourier_forward(field, d, vals))
            assert np.max(np.abs(back - vals)) <= 1e-9

            g = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
            lhs, rhs, _ = plancherel_check(field, d, vals, g)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

            e = PointSet.from_flat(
                field, d, np.sort(rng.choice(size, max(1, min(size // 2, 64)),
                                             replace=False)))
            lhs, rhs, bound = plancherel_check(field, d, e.bits, e.bits)
            assert abs(lhs - rhs) <= bound
            ghat = fourier_forward(field, d, difference_counts(e))
            expect = size * np.abs(fourier_forward(field, d, e.bits)) ** 2
            assert np.max(np.abs(ghat - expect)) <= 1e-8 * max(1.0, float(np.max(expect)))
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"identity suite took {elapsed:.1f}s"
    _passline(1, "fourier identities", f"{cases} field/dim cases, {elapsed:.1f}s")


def test_criterion_2_nu_consistency_500_sets():
    started = time.monotonic()
    for i in range(500):
        p, n = ROSTER[i % len(ROSTER)]
        field = get_field(p, n)
        d = 1 + (i // len(ROSTER)) % 3
        rng = stream(SEED, i, d, 102)
        size = int(rng.integers(1, min(field.q ** d, 60) + 1))
        e = _random_pointset(field, d, size, i, 103)
        brute = nu_bruteforce(e)
        spectral = nu_spectral(e)
        assert np.array_equal(brute, spectral)
        assert brute.sum() == e.count ** 2
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"nu consistency took {elapsed:.1f}s"
    _passline(2, "nu spectral == brute", f"500 sets, {elapsed:.1f}s")


def test_criterion_3_remainder_bound_exact():
    # exact integer inequality (q nu(t) - |E|^2)^2 <= |E|^2 q^{d+1} on every
    # nonzero t (the scope the estimate is proved and used at; t = 0 counts
    # orthogonal pairs and legitimately exceeds it on self-orthogonal lines)
    started = time.monotonic()
    checked = 0

    def assert_bound(e, label):
        counts = nu(e)
        bound = e.count ** 2 * e.field.q ** (e.d + 1)
        for t in range(1, e.field.q):
            num = (e.field.q * int(counts[t]) - e.count ** 2) ** 2
            assert num <= bound, f"violation on {label} at t={t}: {num} > {bound}"
        assert remainder_verdicts(*remainder_sides(counts, e.count, e.field.q, e.d))[0]

    for i in range(1000):
        p, n = ROSTER[i % len(ROSTER)]
        field = get_field(p, n)
        d = 2 + i % 2
        rng = stream(SEED, i, d, 104)
        size = int(rng.integers(1, min(field.q ** d, 80) + 1))
        assert_bound(_random_pointset(field, d, size, i, 105), f"random #{i}")
        checked += 1
    structured = _structured_roster(50)
    assert len(structured) == 50
    for name, e in structured:
        assert_bound(e, name)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"remainder sweep took {elapsed:.1f}s"
    _passline(3, "remainder bound", f"{checked} sets, 0 violations, {elapsed:.1f}s")


def test_criterion_4_cover_theorem_exhaustive():
    started = time.monotonic()
    roster = [(3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2),
              (2, 3, 2), (3, 2, 2), (3, 1, 3)]
    per_field = {}
    for p, n, d in roster:
        field = get_field(p, n)
        q = field.q
        checked = 0
        for size in range(1, q + 1):
            if size ** (2 * d) <= q ** (d + 1):
                continue
            for combo in combinations(range(q), size):
                a = PointSet.from_flat(field, 1, combo)
                assert scalar_cover_threshold(a, d)
                missing = missing_units(sumset_of_products(a, d).bits)
                assert not missing, f"counterexample q={q} d={d} A={combo} missing={missing}"
                checked += 1
        per_field[(q, d)] = checked
    assert per_field[(5, 2)] == 6
    assert per_field[(7, 2)] == 29
    total = sum(per_field.values())
    assert total == 265
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"exhaustive cover sweep took {elapsed:.1f}s"
    _passline(4, "threshold => units covered",
              f"{total} subsets over {len(roster)} (q, d) pairs, {elapsed:.1f}s")


def test_criterion_5_dot_cover_exhaustive_q3():
    started = time.monotonic()
    field = get_field(3, 1)
    checked = 0
    for size in range(6, 10):
        for combo in combinations(range(9), size):
            e = PointSet.from_flat(field, 2, list(combo))
            assert e.count ** 2 > 27
            missing = missing_units(dot_product_set(e).bits)
            assert not missing, f"counterexample E={combo} missing={missing}"
            checked += 1
    assert checked == 130
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"q=3 sweep took {elapsed:.1f}s"
    _passline(5, "dot set covers units at q=3 d=2", f"130 subsets, {elapsed:.1f}s")


def test_criterion_6_lower_bound_and_second_moment():
    started = time.monotonic()
    checked = 0

    def sides(e):
        """(second moment lhs, rhs, dot-set bound lhs, rhs) of one set."""
        q, counts = e.field.q, nu(e)
        max_line = int(line_counts_all(e)[1:].max())
        return (*second_moment_sides(counts, e.count, max_line, q, e.d),
                *dot_set_lower_bound_sides(int((counts > 0).sum()), max_line, e.count, q, e.d))

    for i in range(1000):
        p, n = ROSTER[i % len(ROSTER)]
        field = get_field(p, n)
        d = 2 + i % 2
        rng = stream(SEED, i, d, 106)
        size = int(rng.integers(1, min(field.q ** d - 1, 60) + 1))
        e = _random_origin_free(field, d, size, i, 107)
        sm_lhs, sm_rhs, kb_lhs, kb_rhs = sides(e)
        assert sm_lhs <= sm_rhs, f"second moment violated at i={i}: {sm_lhs} > {sm_rhs}"
        assert kb_lhs >= kb_rhs, f"lower bound violated at i={i}: {kb_lhs} < {kb_rhs}"
        checked += 1
    for name, e in _structured_roster(50):
        sm_lhs, sm_rhs, kb_lhs, kb_rhs = sides(e.strip_origin())
        assert sm_lhs <= sm_rhs and kb_lhs >= kb_rhs, f"violation on {name}"
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"lower bound sweep took {elapsed:.1f}s"
    _passline(6, "second moment + dot set lower bound",
              f"{checked} origin-free sets, {elapsed:.1f}s")


def test_criterion_7_hyperplane_hat_identity():
    started = time.monotonic()
    for i in range(200):
        p, n = ROSTER[i % len(ROSTER)]
        field = get_field(p, n)
        d = 2 + i % 2
        rng = stream(SEED, i, d, 108)
        size = int(rng.integers(1, min(field.q ** d - 1, 60) + 1))
        e = _random_origin_free(field, d, size, i, 109)
        [[checked], [passed]] = _geometry_checks(field, d, PointSet(field, d, e.bits[None]),
                                                 ("identities",))["identities"]
        assert checked and passed, f"identity failed at i={i}"
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"hat identity sweep took {elapsed:.1f}s"
    _passline(7, "hyperplane transform identity", f"200 sets, {elapsed:.1f}s")


def test_criterion_8_sqrt_subfield_obstruction():
    started = time.monotonic()
    for p, n in [(2, 2), (3, 2), (2, 4), (5, 2)]:
        field = get_field(p, n)
        sub = sqrt_subfield(field)
        assert sub.count ** 2 == field.q
        for d in range(1, 7):
            image = sumset_of_products(sub, d)
            assert image == sub, f"q={field.q} d={d}: subfield not closed"
            assert missing_units(image.bits)
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"subfield check took {elapsed:.1f}s"
    _passline(8, "sqrt(q) subfield never covers", f"q in 4, 9, 16, 25, {elapsed:.1f}s")


def test_criterion_9_grid_dot_set_equals_scalar_pipeline():
    started = time.monotonic()
    for i in range(200):
        p, n = ROSTER[i % len(ROSTER)]
        field = get_field(p, n)
        d = 2 + i % 2
        rng = stream(SEED, i, d, 110)
        cap = min(field.q, 12 if d == 2 else 6)
        size = int(rng.integers(1, cap + 1))
        idx = np.sort(rng.choice(field.q, size, replace=False))
        a = PointSet.from_flat(field, 1, idx)
        grid = PointSet.grid_of_scalars(field, d, idx)
        assert dot_product_set(grid) == sumset_of_products(a, d), \
            f"mismatch at i={i}, A={idx.tolist()}"
        assert nu_bruteforce(grid).tolist() == _grid_nu(field, idx, d), \
            f"count mismatch at i={i}, A={idx.tolist()}"
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"grid comparison took {elapsed:.1f}s"
    _passline(9, "nu of grid == d-fold convolution of product counts",
              f"200 sets, {elapsed:.1f}s")


def _grid_nu(field, idx, d):
    """nu of the grid A^d as the d-fold additive convolution of
    m(s) = #{(a, a') in A^2 : a a' = s}, in Python integers from the
    field tables."""
    q = field.q
    m = [0] * q
    for a in idx:
        for b in idx:
            m[field.mul(int(a), int(b))] += 1
    out = m
    for _ in range(d - 1):
        conv = [0] * q
        for s, u in enumerate(out):
            for t, v in enumerate(m):
                conv[field.add(s, t)] += u * v
        out = conv
    return out


def test_criterion_10_report_determinism_across_workers(tmp_path):
    started = time.monotonic()
    outs = []
    for workers in (1, 8):
        out = tmp_path / f"report_w{workers}.json"
        res = subprocess.run(
            [sys.executable, "-m", "fqcover", "cover-sample",
             "--p", "13", "--n", "1", "--d", "2", "--samples", "40",
             "--seed", "42", "--workers", str(workers), "--out", str(out)],
            capture_output=True, text=True, env=src_env())
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1], "reports differ across worker counts"
    report = json.loads(outs[0])
    assert report["spec"]["seed"] == 42
    elapsed = time.monotonic() - started
    _passline(10, "byte-identical reports across workers", f"{elapsed:.1f}s")
