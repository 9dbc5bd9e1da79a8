"""The scalar commands, on sets A of F_q: cover-exhaustive (its level
search over orbit representatives included), cover-sample (with the
bilinear check), sharpness and d-of-eps, and the pair budget of the sets
they check one at a time."""

from __future__ import annotations

import math

import numpy as np

from .covering import (
    bilinear_cover,
    cover_verdict,
    covers_units_block,
    d_for_epsilon,
    dense_block_rows,
    min_threshold_size,
    sqrt_subfield,
    sumset_of_products,
)
from .gf import Field, field_order, subfield_indices
from .harness import (
    DRAW_CAP,
    TAG_BILINEAR,
    TAG_COVER,
    BadSpecError,
    BudgetExceededError,
    ExperimentSpec,
    RunReport,
    _campaign,
    _clip_sizes,
    _divisors,
    _draw,
    _pack,
    _require_checks,
    _require_draw_budget,
    _streams,
    get_field,
    levels,
    require_budget,
)
from .incidence import PointSet

# Pairs that the sets one run checks one at a time may form: the products
# a*a' of its structured sets (the roster of GF(2^14) needs 3.7e8, that of
# GF(2^16) 6.1e9), and a bound on the products and sums of its sampled sets
# that take the per-set `cover_verdict` (sample-q4096 needs 3.4e8) and of its
# bilinear samples.
PAIR_BUDGET = 10 ** 9
# Bits of the largest threshold power q^(2d) a scalar command may take:
# quick to compute, and under the 4300 digits (14,284 bits) that Python
# converts to a decimal string by default.
THRESHOLD_POWER_BITS = 14_000


def structured_scalar_sets(field: Field) -> list[tuple[str, PointSet]]:
    """Deterministic roster of structured A: subfields, multiplicative
    subgroups, generator-power prefixes.  exp_table[k] is g^k."""
    q = field.q
    out: list[tuple[str, PointSet]] = []
    for m in range(1, field.n):
        if field.n % m == 0:
            out.append((f"subfield_{field.p}^{m}",
                        PointSet.from_flat(field, 1, subfield_indices(field, m))))
    if q > 2:
        for h in _divisors(q - 1):
            if 1 < h < q - 1:
                elems = field.exp_table[::(q - 1) // h]
                out.append((f"subgroup_{h}", PointSet.from_flat(field, 1, elems)))
    for length in sorted({2, (q - 1) // 2, q - 2}):
        if 1 <= length <= q - 1:
            elems = field.exp_table[:length]
            out.append((f"powers_{length}", PointSet.from_flat(field, 1, elems)))
    return out


def _verdict_pairs(q: int, k: int, d: int) -> int:
    """An upper bound on the pairs `cover_verdict` forms for a k-set A in
    F_q: its k^2 products, then m min(q, m^j) sums at sumset step j < d,
    for m = min(k^2, q) >= |A*A|."""
    m = min(k * k, q)
    pairs, level = k * k, m
    for j in range(1, d):
        if level >= q or m <= 1:  # every later step pairs as many
            return pairs + (d - j) * m * level
        pairs += m * level
        level = min(q, level * m)
    return pairs


def _sampled_pairs(field: Field, d: int, sizes: range, samples: int, chunk: int) -> int:
    """The `_verdict_pairs` bound summed over the sets of the (size, lo, hi)
    segments that `_campaign`, given `samples` sets of each size and tasks
    of `chunk` sets, packs and `_covers` sends to the per-set
    `cover_verdict`; the sum stops once it passes PAIR_BUDGET."""
    pairs = 0
    tasks = _pack(((k, samples) for k in sizes), chunk)
    for size, lo, hi in (segment for task in tasks for segment in task):
        if pairs > PAIR_BUDGET:
            break
        if not dense_block_rows(field, size, d, hi - lo):
            pairs += (hi - lo) * _verdict_pairs(field.q, size, d)
    return pairs


def _require_pair_budget(roster: list[tuple[str, PointSet]], sampled: int = 0) -> None:
    """Refuse a run whose structured sets need more than PAIR_BUDGET
    products a*a' together with the `sampled` pairs of its sampled sets,
    before any set is formed or drawn."""
    pairs = sum(a.count ** 2 for _, a in roster) + sampled
    if pairs > PAIR_BUDGET:
        raise BudgetExceededError(
            f"the sets checked one at a time may form {pairs} or more products and "
            f"sums, over the budget of {PAIR_BUDGET}")


# ----------------------------------------------------------------------
# cover-exhaustive and cover-sample
# ----------------------------------------------------------------------

def _covers(field: Field, d: int, subsets: np.ndarray) -> np.ndarray:
    """Per row A of `subsets`, whether the d-fold sumset of A*A covers the
    units: the block kernel where `dense_block_rows` allows it, otherwise
    the per-set `cover_verdict`."""
    rows = dense_block_rows(field, subsets.shape[1], d, len(subsets))
    if rows:
        return np.concatenate([covers_units_block(field, subsets[r:r + rows], d)
                               for r in range(0, len(subsets), rows)])
    return np.array([cover_verdict(PointSet.from_flat(field, 1, a), d)["covers_units"]
                     for a in subsets], dtype=bool)


def _oracle_failure(field: Field, d: int, subset: list) -> dict:
    """The report entry of a set that `_covers` found not covering.  Its
    missing list comes from the per-set oracle, which must agree."""
    verdict = cover_verdict(PointSet.from_flat(field, 1, subset), d)
    if verdict["covers_units"]:
        raise RuntimeError(f"block verdict and cover_verdict disagree on {subset}")
    return {"size": len(subset), "subset": subset, "missing": verdict["missing"]}


def _cover_task(batch) -> list[list[dict]]:
    """Per task of a `_campaign` batch, one result per (size, lo, hi) segment."""
    p, n, d, mode, seed, tasks, s_min = batch
    field = get_field(p, n)
    out = [[] for _ in tasks]
    for results, task, drawn in zip(out, tasks, _draw(mode, field.q, tasks, seed, TAG_COVER)):
        for (size, lo, hi), subsets in zip(task, drawn):
            covers = _covers(field, d, subsets)
            failing = np.flatnonzero(~covers & (size >= s_min))
            results.append({"size": size, "checked": hi - lo, "covered": int(covers.sum()),
                            "failures": [{**_oracle_failure(field, d, subsets[i].tolist()),
                                          "sample_index": lo + i} for i in failing.tolist()]})
    return out


def _representatives(rest: np.ndarray) -> np.ndarray:
    """The orbit representatives {1} | R, one int64 row each, of the rows
    of `rest`: the sets R of F_q \\ {1} shifted into range(q - 1), r -> r - 1
    for r > 1."""
    rest = rest.astype(np.int64)
    return np.hstack([np.ones((len(rest), 1), dtype=np.int64), rest + (rest > 0)])


def _scalar_tallies(results: list, s_min: int) -> tuple[dict, list]:
    """The per-size tallies, keyed in size order, and the failures of a list
    of cover task results."""
    tallies: dict = {}
    failures = []
    for res in results:
        t = tallies.setdefault(res["size"], {"checked": 0, "covered": 0,
                                             "threshold": res["size"] >= s_min})
        t["checked"] += res["checked"]
        t["covered"] += res["covered"]
        failures.extend(res["failures"])
    return {str(s): tallies[s] for s in sorted(tallies)}, failures


def _scalar_order(spec: ExperimentSpec) -> int:
    """q = p^n for a scalar command, after the checks of `field_order`.  Its
    exact threshold powers |A|^(2d) <= q^(2d) are taken, and reported, as
    integers: a d that would put q^(2d) past THRESHOLD_POWER_BITS is refused
    by its bit length, before any power is taken."""
    q = field_order(spec.p, spec.n)
    if 2 * spec.d * q.bit_length() > THRESHOLD_POWER_BITS:
        raise BudgetExceededError(
            f"d={spec.d} is too large for q = {spec.p}^{spec.n}: the exact threshold "
            f"powers up to q^(2d) would pass {THRESHOLD_POWER_BITS} bits")
    return q


def _scalar_sizes(spec: ExperimentSpec, q: int, s_min: int) -> range:
    """The sizes of A a cover command checks: spec.sizes clipped to 0..q,
    or every size from the threshold up."""
    if spec.sizes is None:
        return range(min(s_min, q + 1), q + 1)
    return _clip_sizes(spec.sizes, q)


def run_cover_exhaustive(spec: ExperimentSpec) -> RunReport:
    """Tally every subset of F_q of the sizes asked for from the orbit
    representatives that miss a unit, the kept levels of `harness.levels`.

    Coverage does not change under A -> cA, so only the representatives
    {1} | R of each orbit {cA : c != 0} are searched, as the rows R of
    `_representatives`.  A subset B of A gives dB^2 inside dA^2, so the
    representatives that miss a unit are closed under taking subsets that
    hold 1, and level k of the search holds those of size k."""
    # The budget is applied to q before any table of the field is built.
    q, d = _scalar_order(spec), spec.d
    s_min = min_threshold_size(q, d)
    sizes = _scalar_sizes(spec, q, s_min)
    if not sizes:
        raise BadSpecError(f"no size in 1..{q} is above the cover threshold at "
                           f"d={d}; give --sizes")
    budget = require_budget(q, sizes)
    field = get_field(spec.p, spec.n)
    report = RunReport("cover-exhaustive", spec.echo(), field.descriptor())
    # The sets that miss a unit, per size: {} and {0}, which hold none, and
    # the orbits {cA : c != 0} of the kept representatives.  Failing sets
    # are listed from the failing representatives at a threshold size.
    first = max(sizes[0], s_min)
    noncovering = {0: 1, 1: 1}
    failing = [u for u in ([], [0]) if len(u) >= first]
    # Without --sizes the search starts at size 1, for the sizes below the
    # threshold.  It runs in this process at any --workers: a whole run's
    # verdicts take less time than a pool takes to start.
    lo = 1 if spec.sizes is None else max(sizes[0], 1)
    verdicts = 0
    for k, level, kept in levels(q - 1, lambda rest: ~_covers(field, d, _representatives(rest)),
                                 lo, sizes[-1]):
        verdicts += level
        # A k-set with m units has m images cA that hold 1, so a
        # representative stands for (q - 1)/m sets: m = k without 0, k - 1
        # with 0.
        with_zero = int((kept[:, :1] == 0).sum())
        for reps, units in ((len(kept) - with_zero, k), (with_zero, k - 1)):
            if reps:
                sets, remainder = divmod((q - 1) * reps, units)
                if remainder:
                    raise RuntimeError(f"{reps} representatives of size {k} with "
                                       f"{units} units are not whole orbits")
                noncovering[k] = noncovering.get(k, 0) + sets
        if k >= first:
            failing += _representatives(kept).tolist()
    report.tallies = {str(s): {"checked": math.comb(q, s),
                               "covered": math.comb(q, s) - noncovering.get(s, 0),
                               "threshold": s >= s_min} for s in sizes}
    # Each orbit is listed once.
    units = np.arange(1, q)[:, None]
    orbits = {tuple(row) for rep in failing for row in np.sort(
        field.mul_arrays(units, np.array(rep, dtype=np.int64)), axis=1).tolist()}
    report.counterexamples = [_oracle_failure(field, d, list(subset))
                              for subset in sorted(orbits, key=lambda s: (len(s), s))]

    extras = {"threshold_min_size": s_min, "budget": budget}
    if spec.sizes is None and not failing:
        # The smallest size from which up to the threshold every subset
        # covers: one past the largest size that holds a set missing a
        # unit.  Reported, never asserted.  The floor key holds the same
        # value; it stays because it is part of the report.
        extras["empirical_all_cover_min_size"] = extras["empirical_scan_floor"] = \
            max(noncovering) + 1
    report.extras = extras
    report.stats = {"verdicts": verdicts}
    report.flag_counterexamples()
    return report


def _bilinear_campaign(field: Field, d: int, seed: int, samples: int) -> dict:
    covered_count = 0
    min_cover_ratio = None
    max_noncover_ratio = None
    # The samples are drawn in step, DRAW_CAP / q at a time, to bound the
    # draws' arrays.
    chunk = max(1, DRAW_CAP // field.q)
    for lo in range(0, samples, chunk):
        streams = _streams(seed, TAG_BILINEAR, [(i, 0) for i in range(lo, min(samples, lo + chunk))])
        drawn = [streams.choice(field.q, streams.integers(1, field.q)[:, 0]) for _ in range(2 * d)]
        for rows in zip(*drawn):
            sets = [PointSet.from_flat(field, 1, row) for row in rows]
            verdict = bilinear_cover(sets[:d], sets[d:])
            ratio = verdict["ratio"]
            if verdict["covers_units"]:
                covered_count += 1
                if min_cover_ratio is None or ratio < min_cover_ratio:
                    min_cover_ratio = ratio
            elif max_noncover_ratio is None or ratio > max_noncover_ratio:
                max_noncover_ratio = ratio
    return {"samples": samples, "covered": covered_count,
            "min_covering_ratio": min_cover_ratio,
            "max_noncovering_ratio": max_noncover_ratio}


def run_cover_sample(spec: ExperimentSpec) -> RunReport:
    _require_checks(spec, ("bilinear",))
    if spec.mode == "sample" and spec.samples == 0:
        raise BadSpecError("sample mode with --samples 0 checks nothing")
    q, d = _scalar_order(spec), spec.d
    s_min = min_threshold_size(q, d)
    sizes = _scalar_sizes(spec, q, s_min)
    # The bilinear check draws spec.samples more sets, and a sample forms at
    # most d (q - 1)^2 products and (d - 1) q^2 sumset pairs.
    bilinear = "bilinear" in spec.checks
    _require_draw_budget(spec.samples * (len(sizes) + bilinear))
    bilinear_pairs = bilinear * spec.samples * (d * (q - 1) ** 2 + (d - 1) * q * q)
    _require_pair_budget([], bilinear_pairs)
    field = get_field(spec.p, spec.n)
    report = RunReport("cover-sample", spec.echo(), field.descriptor())

    roster = structured_scalar_sets(field) if spec.mode == "structured" else []
    chunk = 256
    _require_pair_budget(
        roster, bilinear_pairs + _sampled_pairs(field, d, sizes, spec.samples, chunk))
    report.tallies, failures = _scalar_tallies(
        _campaign(_cover_task, spec, dict.fromkeys(sizes, spec.samples), chunk, s_min), s_min)

    extras = {"threshold_min_size": s_min}
    if spec.mode == "structured":
        structured = []
        for name, a in roster:
            verdict = cover_verdict(a, d)
            structured.append({"name": name, **verdict})
            if verdict["threshold_met"] and not verdict["covers_units"]:
                failures.append({"size": a.count, "structured": name,
                                 "missing": verdict["missing"]})
        extras["structured"] = structured
    if bilinear:
        extras["bilinear"] = _bilinear_campaign(field, d, spec.seed, spec.samples)

    if not (sum(t["checked"] for t in report.tallies.values())
            + len(extras.get("structured", ())) + extras.get("bilinear", {}).get("samples", 0)):
        raise BadSpecError(f"checked nothing: no size in 1..{q} is above the cover "
                           f"threshold at d={d} (give --sizes), and no structured "
                           f"set or bilinear sample was checked")

    report.counterexamples = sorted(
        failures, key=lambda c: (c["size"], c.get("sample_index", -1), str(c)))
    report.extras = extras
    report.flag_counterexamples()
    return report


# ----------------------------------------------------------------------
# sharpness
# ----------------------------------------------------------------------

def run_sharpness(spec: ExperimentSpec) -> RunReport:
    _scalar_order(spec)
    field = get_field(spec.p, spec.n)
    q, d = field.q, spec.d
    report = RunReport("sharpness", spec.echo(), field.descriptor())
    extras: dict = {}
    roster = structured_scalar_sets(field)
    if not roster and field.n % 2:
        raise BadSpecError(f"checked nothing: F_{q} has no structured set and no sqrt(q) subfield")
    _require_pair_budget(roster)

    if field.n % 2 == 0:
        sub = sqrt_subfield(field)
        closure_ok = all(sumset_of_products(sub, dd) == sub for dd in range(1, 7))
        covered = bool(sumset_of_products(sub, d).bits[1:].all())
        extras["sqrt_subfield"] = {
            "size": sub.count,
            "closed_up_to_d6": closure_ok,
            "covers_units": covered,
            "ratio": sub.count / q ** ((d + 1) / (2 * d)),
        }
        if not closure_ok or covered:
            report.counterexamples.append({"structured": "sqrt_subfield",
                                           "size": sub.count})
    else:
        extras["sqrt_subfield"] = "skipped: no subfield of size sqrt(q)"

    best = None
    families = []
    for name, a in roster:
        verdict = cover_verdict(a, d)
        entry = {"name": name, "size": a.count,
                 "covers_units": verdict["covers_units"],
                 "ratio": a.count / q ** ((d + 1) / (2 * d))}
        families.append(entry)
        if not verdict["covers_units"] and (best is None or a.count > best["size"]):
            best = entry
        if verdict["threshold_met"] and not verdict["covers_units"]:
            report.counterexamples.append({"structured": name, "size": a.count})
    extras["families"] = families
    extras["largest_noncovering"] = best
    report.tallies = {"families_checked": len(families)}
    report.extras = extras
    report.flag_counterexamples()
    return report


# ----------------------------------------------------------------------
# d-of-eps
# ----------------------------------------------------------------------

def run_d_of_eps(eps) -> RunReport:
    """d-of-eps for eps a Fraction, or anything `Fraction` reads."""
    from fractions import Fraction  # as in d_for_epsilon
    d_cover, d_proportion = d_for_epsilon(eps)
    report = RunReport("d-of-eps", {"eps": str(Fraction(eps))}, None)
    report.extras = {"d_cover": d_cover, "d_proportion": d_proportion}
    return report
