"""The `geometry` command: the point-set checks (cover, remainder,
identities, second moment, key lower bound) on sets E of F_q^d, sampled,
enumerated or from a structured roster, checked in stacks."""

from __future__ import annotations

import math

import numpy as np

from . import incidence
from .covering import (
    MISSING_REPORT_LIMIT,
    dot_set_lower_bound_sides,
    missing_units,
    point_cover_threshold,
)
from .fourier import diff_hat_close, fourier_forward, row_blocks
from .gf import DEFAULT_SIZE_CAP, MUL_TABLE_MAX_Q, Field, field_order
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
    _require_draw_budget,
    get_field,
    require_budget,
)
from .incidence import (
    PointSet,
    difference_counts,
    hat_identity_close,
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
    from .sampling import sample_rows
    extra = sample_rows(seed, q ** d, [(0, 0, TAG_STRUCTURED)],
                        [min(q ** d, max(2, q // 2))])[0]
    out.append(("line_plus_random", PointSet.line(field, d, 1).union(
        PointSet.from_flat(field, d, extra))))
    if q ** d <= 512:
        out.append(("punctured_space", PointSet.full(field, d).strip_origin()))
    return out


def _geometry_checks(field: Field, d: int, e: PointSet, checks) -> list[dict]:
    """Run the requested point-set checks on every set of the stack e (one
    set per row, of any sizes); per set, the per-check booleans plus the
    exact remainder sharpness fraction.

    The coverage threshold is taken on each set as drawn; its verdict is
    the same either way, because the origin adds only the dot product 0,
    which coverage of the units ignores.  Every other count is taken once,
    on the stack with the origin stripped, its core.
    """
    q = field.q
    drawn_met = point_cover_threshold(e)
    e = e.strip_origin()
    size = e.sizes
    outs: list[dict] = [{} for _ in size]

    def put(check, values) -> None:
        for out, v in zip(outs, values):
            out[check] = v

    # nu and the line counts are looked up on their module, where tests
    # count the calls.
    if {"cover", "remainder", "second_moment", "keylowerbound"} & set(checks):
        counts = incidence.nu(e)
    if {"identities", "second_moment", "keylowerbound"} & set(checks):
        lines = incidence.line_counts_all(e)
        max_line = lines[:, 1:].max(axis=1)
    if "cover" in checks:
        for out, met, missing in zip(outs, drawn_met, missing_units(counts)):
            out["cover"] = not missing if met else None
            if met and missing:
                out["cover_missing"] = missing[:MISSING_REPORT_LIMIT]
    if "remainder" in checks:
        ok, _, worst = remainder_verdicts(*remainder_sides(counts, size, q, d))
        put("remainder", ok.tolist())
        put("sharpness_frac", [(w ** 2, n ** 2 * q ** (d + 1))
                               for w, n in zip(worst.tolist(), size.tolist())])
    if "identities" in checks:
        stacked = np.stack([hyperplane_sum(e), difference_counts(e), e.bits])
        hats = fourier_forward(field, d, stacked)
        put("identities", (hat_identity_close(hats[0], lines, size, q)[0]
                           & diff_hat_close(hats[1], hats[2], q ** d)).tolist())
    if "second_moment" in checks:
        lhs, rhs = second_moment_sides(counts, size, max_line, q, d)
        put("second_moment", (lhs <= rhs).tolist())
    if "keylowerbound" in checks:
        lhs, rhs = dot_set_lower_bound_sides((counts > 0).sum(axis=1), max_line, size, q, d)
        put("keylowerbound", (lhs >= rhs).tolist())
    return outs


def _stacked_checks(field: Field, d: int, bits: np.ndarray, checks) -> list[dict]:
    """`_geometry_checks` on the sets in the rows of bits, in stacks of as
    many sets as keep a q^d array of complex values per set under
    DENSE_BLOCK_BYTES, and at least one set."""
    return [res for rows in row_blocks(len(bits), field.q ** d)
            for res in _geometry_checks(field, d, PointSet(field, d, bits[rows]), checks)]


def _geometry_task(batch) -> list[list[dict]]:
    p, n, d, mode, seed, tasks, checks = batch
    field = get_field(p, n)
    out = []
    for task, drawn in zip(tasks, _draw(mode, field.q ** d, tasks, seed, TAG_POINTS)):
        bits = np.zeros((sum(map(len, drawn)), field.q ** d), dtype=bool)
        for rows, at in zip(drawn, np.cumsum([0, *map(len, drawn)])):  # sets of one size
            bits[np.arange(at, at + len(rows))[:, None], rows] = True
        out.append(_stacked_checks(field, d, bits, checks))
        outcomes = iter(out[-1])
        for (size, lo, _), rows in zip(task, drawn):
            for i, flats in enumerate(rows, lo):
                name = f"_colex{tuple(flats.tolist())}" if mode == "exhaustive" else f"#{i}"
                next(outcomes).update(size=size, name=f"size{size}{name}", flats=flats)
    return out


def _merge_geometry_outcomes(report: RunReport, outcomes, checks) -> tuple:
    tallies = {c: {"checked": 0, "passed": 0} for c in checks}
    worst = (0, 1, None, None)  # (numerator, denominator, label, flat indices)
    for res in outcomes:
        label = res["name"]
        for c in checks:
            val = res.get(c)
            if val is None:
                continue
            tallies[c]["checked"] += 1
            tallies[c]["passed"] += bool(val)
            if not val:
                entry = {"check": c, "case": label}
                if c == "cover":
                    entry["missing"] = res.get("cover_missing", [])
                report.counterexamples.append(entry)
        frac = res.get("sharpness_frac")
        if frac and frac[1] > 0 and frac[0] * worst[1] > worst[0] * frac[1]:
            worst = (frac[0], frac[1], label, res["flats"])
    report.tallies = tallies
    return worst


def run_geometry(spec: ExperimentSpec) -> RunReport:
    """Run the point-set checks, all of them unless spec.checks names some.
    With spec.csv set, also write the nu profile of the sharpest case, with
    the origin stripped, as CSV; the remainder check finds that case, so
    without it spec.csv is refused.  A space whose q^d arrays or q x q
    character matrix pass the field layer's own caps is refused before
    anything is built."""
    _require_checks(spec, POINT_CHECKS)
    checks = spec.checks or POINT_CHECKS
    if spec.csv and "remainder" not in checks:
        raise BadSpecError("--csv writes the sharpest remainder case: it needs that check")
    p, n, d = spec.p, spec.n, spec.d
    space = f"F_q^{d} for q = {p}^{n}"
    caps = f"the caps are {DEFAULT_SIZE_CAP} points and q <= {MUL_TABLE_MAX_Q}"
    if p >= 2 and n >= 1:  # field_order refuses any other p and n
        # q >= p, q >= 2^n and q^d >= 2^d: a space this far over the caps
        # is refused before a power is taken.
        if max(n, d) >= DEFAULT_SIZE_CAP.bit_length() or p > DEFAULT_SIZE_CAP:
            raise BudgetExceededError(f"{space} is too large: {caps}")
        q = p ** n
        if q ** d > DEFAULT_SIZE_CAP or q > MUL_TABLE_MAX_Q:
            raise BudgetExceededError(
                f"{space} needs {16 * q ** d} bytes per function on its q^d points "
                f"and {16 * q * q} for the q x q character matrix; {caps}")
    q = field_order(p, n)
    universe = q ** d

    if spec.sizes is not None:
        sizes = _clip_sizes(spec.sizes, universe)
    elif spec.mode == "exhaustive":
        # From the least size with |E|^2 > q^{d+1}, the point cover threshold.
        sizes = range(math.isqrt(q ** (d + 1)) + 1, universe + 1)
    else:
        sizes = range(1, min(universe, 100) + 1)

    if spec.mode == "exhaustive":
        require_budget(universe, sizes)
        totals = {s: math.comb(universe, s) for s in sizes}
    else:
        _require_draw_budget(len(sizes) * spec.samples)
        totals = dict.fromkeys(sizes, spec.samples)
    field = get_field(p, n)
    report = RunReport("geometry", spec.echo(), field.descriptor())
    outcomes = _campaign(_geometry_task, spec, totals, 64, checks)
    if spec.mode == "structured":
        roster = structured_point_sets(field, d, spec.seed)
        checked = _stacked_checks(field, d, np.stack([e.bits for _, e in roster]), checks)
        for (name, e), res in zip(roster, checked):
            res.update(size=e.count, name=name, flats=e.flat_indices())
        outcomes += checked

    worst = _merge_geometry_outcomes(report, outcomes, checks)
    if not any(t["checked"] for t in report.tallies.values()):
        raise BadSpecError(f"checked nothing: no set drawn is within the scope of "
                           f"the checks {', '.join(checks)}")
    report.extras = {
        "sharpness": {"max_ratio": worst[0] / worst[1] if worst[2] else 0.0,
                      "numerator": worst[0], "denominator": worst[1],
                      "case": worst[2]},
    }
    report.counterexamples.sort(key=lambda c: (c["check"], str(c["case"])))
    report.flag_counterexamples()
    if spec.csv and worst[2]:
        import csv  # only a --csv run writes one
        core = PointSet.from_flat(field, d, worst[3]).strip_origin()
        rows = [[t, c, q * c - core.count ** 2]
                for t, c in enumerate(nu_bruteforce(core).tolist())]
        try:
            with open(spec.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t_index", "nu", "r_numerator"])
                writer.writerows(rows)
        except OSError as exc:
            raise BadSpecError(f"cannot write {spec.csv}: {exc}") from exc
    return report
