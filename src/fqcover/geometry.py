"""The `geometry` command: the point-set checks (cover, remainder,
identities, second moment, key lower bound) on sets E of F_q^d, sampled,
enumerated or from a structured roster, checked in stacks."""

from __future__ import annotations

import math
from functools import cmp_to_key

import numpy as np

from . import incidence
from .covering import dot_set_lower_bound_sides, missing_units, point_cover_threshold
from .fourier import fourier_forward, fourier_invert, row_blocks, within_rounding
from .gf import MUL_TABLE_MAX_Q, SIZE_CAP, Field, field_order
from .harness import (
    TAG_POINTS,
    TAG_STRUCTURED,
    BadSpecError,
    BudgetExceededError,
    ExperimentSpec,
    RunReport,
    _campaign,
    _clip_sizes,
    _divisors,
    _draw,
    _require_checks,
    _streams,
    colex_unrank,
    get_field,
    require_budget,
)
from .incidence import (
    PointSet,
    difference_counts,
    hyperplane_sum,
    nu_bruteforce,
    remainder_sides,
    remainder_verdicts,
    second_moment_sides,
)

POINT_CHECKS = ("cover", "remainder", "identities", "second_moment", "keylowerbound")


def structured_point_sets(field: Field, d: int, seed: int) -> list[tuple[str, PointSet]]:
    """Deterministic roster of structured E: lines, hyperplanes, grids,
    subgroup grids, a line with random points, small punctured spaces."""
    q = field.q
    out: list[tuple[str, PointSet]] = []
    directions = [1]
    if d >= 2:
        directions += [q, 1 + q]
    for y in directions:
        out.append((f"line_{y}", PointSet.line(field, d, y)))
    if d >= 2:
        for m in directions[:2]:
            out.append((f"hyperplane_{m}", PointSet.perp_hyperplane(field, d, m)))
    grid_a = list(range(1, min(q, 1 + max(2, math.isqrt(q)))))
    out.append(("grid_smallrange", PointSet.grid_of_scalars(field, d, grid_a)))
    if q > 3:
        h = max(h for h in _divisors(q - 1) if h < q - 1)
        sub = field.exp_table[::(q - 1) // h]
        out.append((f"subgroup_grid_{h}", PointSet.grid_of_scalars(field, d, sub)))
    extra = _streams(seed, TAG_STRUCTURED, [(0, 0)], q ** d, [min(q ** d, max(2, q // 2))])[0]
    out.append(("line_plus_random", PointSet.line(field, d, 1).union(
        PointSet.from_flat(field, d, extra))))
    if q ** d <= 512:
        out.append(("punctured_space", PointSet.full(field, d).strip_origin()))
    return out


def _geometry_checks(field: Field, d: int, e: PointSet, checks) -> dict:
    """Run the requested point-set checks on every set of the stack e (one
    set per row, of any sizes): per check, a (checked, passed) pair of bool
    arrays over the sets; under "missing", the `missing_units` of each set
    that fails cover; under "sharpness", the int arrays (worst r(t), |E|).

    Cover is checked where |E|^2 > q^{d+1} on the set as drawn, the same
    verdict as on its core, the set with the origin stripped (the origin
    adds only the dot product 0); every other check runs on every set, and
    every count is taken once, on the stack of the cores."""
    q = field.q
    drawn_met = point_cover_threshold(e)
    e = e.strip_origin()
    size = e.sizes
    every = np.ones(len(size), dtype=bool)
    out = {}
    # nu and the line counts are looked up on their module, where tests
    # count the calls.
    if {"cover", "remainder", "second_moment", "keylowerbound"} & set(checks):
        counts = incidence.nu(e)
    if {"identities", "second_moment", "keylowerbound"} & set(checks):
        lines = incidence.line_counts_all(e)
        max_line = lines[:, 1:].max(axis=1)
    if "cover" in checks:
        covered = counts[:, 1:].all(axis=1)
        out["cover"] = (drawn_met, covered)
        out["missing"] = [missing_units(row) for row in counts[drawn_met & ~covered]]
    if "remainder" in checks:
        ok, _, worst = remainder_verdicts(*remainder_sides(counts, size, q, d))
        out["remainder"] = (every, ok)
        out["sharpness"] = (worst, size)
    if "identities" in checks:
        # Fhat(k) = |E intersect l_k| / q (k != 0), Fhat(0) = |E| / q and
        # Dhat = q^d |Ehat|^2, inverted: q F and D are the inverses of the
        # line counts with |E| at 0 and of q^d |Ehat|^2.
        lines_at_0 = np.concatenate([size[:, None], lines[:, 1:]], axis=1)
        ehat = fourier_forward(field, d, e.bits)
        inv = fourier_invert(field, d, np.stack([lines_at_0, q ** d * np.abs(ehat) ** 2]))
        bound = incidence.identity_error(q, d, size)
        out["identities"] = (every, within_rounding(inv[0], q * hyperplane_sum(e), bound)
                             & within_rounding(inv[1], difference_counts(e), bound))
    if "second_moment" in checks:
        lhs, rhs = second_moment_sides(counts, size, max_line, q, d)
        out["second_moment"] = (every, lhs <= rhs)
    if "keylowerbound" in checks:
        lhs, rhs = dot_set_lower_bound_sides((counts > 0).sum(axis=1), max_line, size, q, d)
        out["keylowerbound"] = (every, lhs >= rhs)
    return out


def _stacked_checks(field: Field, d: int, bits: np.ndarray, checks) -> list[dict]:
    """`_geometry_checks` on the sets in the rows of bits, per stack of as many
    sets (at least one) as keep a q^d complex array per set under DENSE_BLOCK_BYTES."""
    return [_geometry_checks(field, d, PointSet(field, d, bits[rows]), checks)
            for rows in row_blocks(len(bits), field.q ** d)]


def _geometry_task(batch) -> list[list[dict]]:
    p, n, d, mode, seed, tasks, checks = batch
    field = get_field(p, n)
    out = []
    for drawn in _draw(mode, field.q ** d, tasks, seed, TAG_POINTS):
        bits = np.zeros((sum(map(len, drawn)), field.q ** d), dtype=bool)
        for rows, at in zip(drawn, np.cumsum([0, *map(len, drawn)])):  # sets of one size
            bits[np.arange(at, at + len(rows))[:, None], rows] = True
        out.append(_stacked_checks(field, d, bits, checks))
    return out


def _merge_geometry_outcomes(report: RunReport, outcomes, checks, case, q: int, d: int):
    """Fill the report from the `_geometry_checks` results of consecutive
    stacks, asking case(at) for the label and flat-index call of only the
    sets it names, and return the call of the sharpest remainder case, the
    first largest r(t)^2 / (|E|^2 q^{d+1}) (exactly: as |r(t)| / |E|)."""
    missing = iter([m for o in outcomes for m in o.get("missing", ())])
    for c in checks:
        checked, passed = np.concatenate([o[c] for o in outcomes], axis=1)
        report.tallies[c] = {"checked": int(np.count_nonzero(checked)),
                             "passed": int(np.count_nonzero(checked & passed))}
        report.counterexamples += [{"check": c, "case": case(at)[0],
                                    **({"missing": next(missing)} if c == "cover" else {})}
                                   for at in np.flatnonzero(checked & ~passed).tolist()]
    report.counterexamples.sort(key=lambda c: (c["check"], str(c["case"])))
    num, den, label, flats = 0, 1, None, None
    if "remainder" in checks:
        worst, size = np.abs(np.concatenate([o["sharpness"] for o in outcomes], axis=1)).tolist()
        at = max(np.flatnonzero(worst).tolist(), default=None,
                 key=cmp_to_key(lambda i, j: worst[i] * size[j] - worst[j] * size[i]))
        if at is not None:
            num, den, (label, flats) = worst[at] ** 2, size[at] ** 2 * q ** (d + 1), case(at)
    report.extras = {"sharpness": {"max_ratio": num / den, "numerator": num,
                                   "denominator": den, "case": label}}
    return flats


def run_geometry(spec: ExperimentSpec) -> RunReport:
    """Run the point-set checks, all of them unless spec.checks names some.
    With spec.csv set, also write the nu profile of the sharpest case, with
    the origin stripped, as CSV; the remainder check finds that case, so
    without it spec.csv is refused.  A space whose q^d arrays or q x q
    character matrix pass the field layer's own caps is refused before
    anything is built, and one whose rounding bound at its largest set
    reaches 1/2 before any count."""
    _require_checks(spec, POINT_CHECKS)
    checks = spec.checks or POINT_CHECKS
    if spec.csv and "remainder" not in checks:
        raise BadSpecError("--csv writes the sharpest remainder case: it needs that check")
    p, n, d = spec.p, spec.n, spec.d
    q = field_order(p, n)
    space = f"F_q^{d} for q = {p}^{n}"
    caps = f"the caps are {SIZE_CAP} points and q <= {MUL_TABLE_MAX_Q}"
    # q^d >= 2^d: a d this far over the cap is refused before the power is taken.
    if d >= SIZE_CAP.bit_length():
        raise BudgetExceededError(f"{space} is too large: {caps}")
    if q ** d > SIZE_CAP or q > MUL_TABLE_MAX_Q:
        raise BudgetExceededError(
            f"{space} needs {16 * q ** d} bytes per function on its q^d points "
            f"and {16 * q * q} for the q x q character matrix; {caps}")
    universe = q ** d

    if spec.sizes is not None:
        sizes = _clip_sizes(spec.sizes, universe)
    elif spec.mode == "exhaustive":
        # From the least size with |E|^2 > q^{d+1}, the point cover threshold.
        sizes = range(math.isqrt(q ** (d + 1)) + 1, universe + 1)
    else:
        sizes = range(1, min(universe, 100) + 1)

    if spec.mode == "exhaustive":
        require_budget(math.comb(universe, s) for s in sizes)
        totals = {s: math.comb(universe, s) for s in sizes}
    else:
        require_budget([len(sizes) * spec.samples])
        totals = dict.fromkeys(sizes, spec.samples)
    field = get_field(p, n)
    roster = structured_point_sets(field, d, spec.seed) if spec.mode == "structured" else []
    # The bound of the identity checks, and of nu_spectral if a check reads nu.
    largest = max([*sizes[-1:], *(e.count for _, e in roster)], default=0)
    bound = max(incidence.identity_error(q, d, largest) if "identities" in checks else 0,
                incidence.spectral_error(q, d, largest) if set(checks) != {"identities"} else 0)
    if bound >= 0.5:
        raise BudgetExceededError(f"{space}: rounding bound {bound:.3g} >= 1/2 at {largest} points")
    report = RunReport("geometry", spec.echo(), field.descriptor())
    outcomes = _campaign(_geometry_task, spec, totals, 64, checks)
    if roster:
        outcomes += _stacked_checks(field, d, np.stack([e.bits for _, e in roster]), checks)
    starts = np.cumsum([0, *totals.values()]).tolist()

    def case(at: int):
        """The label of the set at position `at` of the outcomes (the
        campaign's sets, then the roster's) and a call for its flats."""
        if at >= starts[-1]:
            name, e = roster[at - starts[-1]]
            return name, e.flat_indices
        j = int(np.searchsorted(starts, at, side="right")) - 1
        size, i = list(totals)[j], at - starts[j]
        if spec.mode == "exhaustive":
            flats = colex_unrank(universe, size, i, i + 1)[0]
            return f"size{size}_colex{tuple(flats.tolist())}", lambda: flats
        return f"size{size}#{i}", lambda: _streams(spec.seed, TAG_POINTS, [(i, size)],
                                                     universe, [size])[0]

    flats = _merge_geometry_outcomes(report, outcomes, checks, case, q, d) if outcomes else None
    if not any(t["checked"] for t in report.tallies.values()):
        raise BadSpecError(f"checked nothing: no set drawn is within the scope of "
                           f"the checks {', '.join(checks)}")
    report.flag_counterexamples()
    if spec.csv and flats:
        import csv  # only a --csv run writes one
        core = PointSet.from_flat(field, d, flats()).strip_origin()
        rows = [["t_index", "nu", "r_numerator"]] + [
            [t, c, q * c - core.count ** 2] for t, c in enumerate(nu_bruteforce(core).tolist())]
        try:
            with open(spec.csv, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        except OSError as exc:
            raise BadSpecError(f"cannot write {spec.csv}: {exc}") from exc
    return report
