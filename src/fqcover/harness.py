"""Experiment harness: self-tests, sweeps, sampling campaigns, reports.

Reproducibility contract: a command with a fixed spec and seed produces a
byte-identical JSON report across runs and across worker counts.  Three
things make that work:

* the RNG is Philox (counter-based): every sampled object gets its own
  stream keyed by (seed; sample index, size, purpose tag), so sharding
  the sample indices over workers cannot change what is drawn.  Every
  draw is numpy's, computed by `sampling` without numpy.random;
* the tasks, runs of consecutive (size, index) pairs, are dealt
  round-robin into one batch per worker, which draws them in sampler calls
  of up to DRAW_CAP values; the results are put back in task order and
  merged by addition / sorted concatenation, both order-independent;
* wall-clock timing is printed to stderr by the CLI and never enters the
  JSON body.

Integers with absolute value >= 2^53 are serialized as decimal strings
so the reports survive JSON readers that parse numbers as doubles.

Each CLI run is a cold process, often without a bytecode cache, so this
module loads at import only what a run of the main commands executes.
The spec and the report are plain classes, not dataclasses, whose
methods would be generated and compiled on every import.  `fractions`
(which loads `decimal`) and `csv` are imported inside `run_d_of_eps` and
the `--csv` branch of `run_geometry`, `sampling` where a run draws, and
the process pool where one starts.

Runs are refused before they start work they cannot finish: exhaustive
enumeration past EXHAUSTIVE_BUDGET subsets and campaigns that would draw
more than EXHAUSTIVE_BUDGET sets (the bilinear samples counted in), both
before the field is built, and structured sets, sampled sets and
bilinear samples whose per-set verdicts would form more than PAIR_BUDGET
pairs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import __version__, incidence
from .covering import (
    MISSING_REPORT_LIMIT,
    bilinear_cover,
    cover_verdict,
    covers_units,
    covers_units_block,
    d_for_epsilon,
    dense_block_rows,
    dot_set_lower_bound_sides,
    min_threshold_size,
    missing_units,
    point_cover_threshold,
    sqrt_subfield,
    sumset_of_products,
)
from .fourier import (
    char_matrix,
    diff_hat_close,
    fourier_forward,
    fourier_forward_direct,
    fourier_invert,
    plancherel_check,
    row_blocks,
)
from .gf import (
    DEFAULT_SIZE_CAP,
    MUL_TABLE_MAX_Q,
    Field,
    field_order,
    make_field,
    subfield_indices,
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

EXHAUSTIVE_BUDGET = 10 ** 7
# Pairs that the sets one run checks one at a time may form: the products
# a*a' of its structured sets (the roster of GF(2^14) needs 3.7e8, that of
# GF(2^16) 6.1e9), and a bound on the products and sums of its sampled sets
# that take the per-set `cover_verdict` (sample-q4096 needs 3.4e8) and of its
# bilinear samples.
PAIR_BUDGET = 10 ** 9
# Candidate orbit representatives per verdict block of the cover-exhaustive
# search.
SUBSET_CHUNK = 2048
DRAW_CAP = 1 << 16  # values one sampler call draws, unless one task alone holds more
JSON_INT_LIMIT = 1 << 53
# Bits of the largest threshold power q^(2d) a scalar command may take:
# quick to compute, and under the 4300 digits (14,284 bits) that Python
# converts to a decimal string by default.
THRESHOLD_POWER_BITS = 14_000

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_BAD_SPEC = 3
EXIT_BUDGET = 4

# Purpose tags keep the Philox streams of different sampling loops disjoint.
TAG_COVER = 1
TAG_POINTS = 2
TAG_BILINEAR = 3
TAG_STRUCTURED = 4
TAG_SELFTEST = 5

SELFTEST_ROSTER = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                   (2, 3), (3, 2), (13, 1), (2, 4), (5, 2))

POINT_CHECKS = ("cover", "remainder", "identities", "second_moment", "keylowerbound")


class BadSpecError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    pass


class ExperimentSpec:
    # The spec's fields, which the CLI fills from the options of a command.
    __slots__ = ("p", "n", "d", "mode", "sizes", "samples", "seed", "checks", "workers", "csv")

    def __init__(self, p: int, n: int = 1, d: int = 2,
                 mode: str = "sample",  # exhaustive | sample | structured
                 sizes: tuple[int, int] | None = None, samples: int = 100, seed: int = 0,
                 checks: tuple[str, ...] = (), workers: int = 1, csv: str | None = None):
        self.p = p
        self.n = n
        self.d = d
        self.mode = mode
        self.sizes = sizes
        self.samples = samples
        self.seed = seed
        self.checks = checks
        self.workers = workers
        self.csv = csv

    def validate(self) -> None:
        if self.mode not in ("exhaustive", "sample", "structured"):
            raise BadSpecError(f"unknown mode {self.mode!r}")
        if self.d < 1:
            raise BadSpecError(f"dimension d={self.d} must be >= 1")
        if self.samples < 0:
            raise BadSpecError(f"sample count must be >= 0, got {self.samples}")
        if not (0 <= self.seed < 1 << 64):
            raise BadSpecError("seed must fit in 64 bits")
        if self.sizes is not None and self.sizes[0] > self.sizes[1]:
            raise BadSpecError(f"empty size range {self.sizes}")
        if len(set(self.checks)) < len(self.checks):
            raise BadSpecError(f"repeated checks: {list(self.checks)}")
        if self.workers < 1:
            raise BadSpecError("workers must be >= 1")

    def echo(self) -> dict:
        # Execution-only fields (workers, output paths) stay out of the echo
        # so reports are byte-identical across worker counts.
        return {
            "p": self.p, "n": self.n, "d": self.d, "mode": self.mode,
            "sizes": list(self.sizes) if self.sizes else None,
            "samples": self.samples, "seed": self.seed,
            "checks": list(self.checks),
        }


def _require_checks(spec: ExperimentSpec, allowed: tuple[str, ...]) -> None:
    bad = sorted(set(spec.checks) - set(allowed))
    if bad:
        raise BadSpecError(f"unknown checks {bad}: this command runs {', '.join(allowed)}")


class RunReport:
    def __init__(self, command: str, spec: dict, field: dict | None):
        self.command = command
        self.spec = spec
        self.field = field
        self.tallies: dict = {}
        self.counterexamples: list = []
        self.extras: dict = {}
        self.status = "ok"
        self.exit_code = EXIT_OK
        # Counts of the work done, for the CLI's stderr line; never serialized.
        self.stats: dict = {}

    def flag_counterexamples(self) -> None:
        if self.counterexamples:
            self.status = "counterexample"
            self.exit_code = EXIT_COUNTEREXAMPLE

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "version": __version__,
            "command": self.command,
            "spec": self.spec,
            "field": self.field,
            "tallies": self.tallies,
            "counterexamples": self.counterexamples,
            "extras": self.extras,
            "status": self.status,
            "exit_code": self.exit_code,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, float, str)):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= JSON_INT_LIMIT else obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------

_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def get_field(p: int, n: int) -> Field:
    f = _FIELD_CACHE.get((p, n))
    if f is None:
        f = make_field(p, n)
        _FIELD_CACHE[(p, n)] = f
    return f


# ----------------------------------------------------------------------
# Structured families
# ----------------------------------------------------------------------

def _divisors(m: int) -> list[int]:
    """The divisors of m >= 1 in increasing order, by trial division up to
    sqrt(m)."""
    low = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return low + [m // d for d in reversed(low) if d * d != m]


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
    """The `_verdict_pairs` bound summed over the `samples` sets of each
    size that `_covers`, given tasks of `chunk` sets, sends to the per-set
    `cover_verdict`; the sum stops once it passes PAIR_BUDGET."""
    pairs = 0
    for k in sizes:
        if pairs > PAIR_BUDGET:
            break
        if not dense_block_rows(field, k, d, min(samples, chunk)):
            pairs += samples * _verdict_pairs(field.q, k, d)
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


# ----------------------------------------------------------------------
# Subset enumeration (colex order) and budget guard
# ----------------------------------------------------------------------

def colex_unrank(universe: int, k: int, lo: int, hi: int) -> np.ndarray:
    """The k-subsets of range(universe) with colex ranks lo..hi-1, one
    sorted subset per row of a (hi - lo) x k int64 array.

    Combinatorial number system: the subset c_1 < ... < c_k has rank
    sum_i C(c_i, i), so c_i is the largest c with C(c, i) at most what is
    left of the rank once the elements above it are taken off.
    """
    total = math.comb(universe, k)
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"ranks [{lo}, {hi}) outside [0, {total})")
    if total * max(universe, 1) >= 1 << 63:
        raise ValueError(f"C({universe}, {k}) ranks overflow int64")
    # binom[i - 1][c] = C(c, i) for c < universe, capped at total so that
    # the running sums stay in int64; every rank is below the cap.
    binom = []
    col = np.ones(universe, dtype=np.int64)
    for _ in range(k):
        col = np.minimum(np.concatenate(([0], np.cumsum(col)[:-1])), total)
        binom.append(col)
    out = np.empty((hi - lo, k), dtype=np.int64)
    rank = np.arange(lo, hi, dtype=np.int64)
    for i in range(k, 0, -1):
        c = np.searchsorted(binom[i - 1], rank, side="right") - 1
        out[:, i - 1] = c
        rank -= binom[i - 1][c]
    return out


def require_budget(universe: int, sizes: range | list[int]) -> int:
    """The number of subsets of the given sizes, refused past the budget."""
    # Summed only until the budget is passed: over all the sizes of GF(4096),
    # the binomials alone take seconds.
    total = 0
    for s in sizes:
        total += math.comb(universe, s)
        if total > EXHAUSTIVE_BUDGET:
            raise BudgetExceededError(
                f"exhaustive enumeration needs at least {total} subsets, over the "
                f"budget of {EXHAUSTIVE_BUDGET}")
    return total


def _require_draw_budget(sets: int) -> None:
    """Refuse a run that would draw more than EXHAUSTIVE_BUDGET sets, the
    budget of enumerated subsets, before its tasks are packed."""
    if sets > EXHAUSTIVE_BUDGET:
        raise BudgetExceededError(
            f"the run would draw {sets} sets, over the budget of {EXHAUSTIVE_BUDGET}")


def _draw(mode: str, universe: int, tasks, seed: int, tag: int):
    """Per task in turn, per (size, lo, hi) segment, the size-`size` subsets
    of range(universe) with indices lo..hi-1, one sorted subset per row of
    an int64 array: colex ranks in exhaustive mode, otherwise one
    `sample_rows` call per run of tasks, cut only where its values would
    pass DRAW_CAP, on one Philox stream per (sample index, size, tag)."""
    if mode == "exhaustive":
        yield from ([colex_unrank(universe, *segment) for segment in task] for task in tasks)
        return
    # Imported here, as the process pool is: a run that draws nothing does
    # not load the sampler.
    from .sampling import sample_rows
    calls, held = [], 0
    for task in tasks:
        values = sum(size * (hi - lo) for size, lo, hi in task)
        if not calls or held + values > DRAW_CAP:
            calls.append([])
            held = 0
        calls[-1].append(task)
        held += values
    for call in calls:
        jobs = [(i, size, tag) for task in call for size, lo, hi in task for i in range(lo, hi)]
        rows = iter(sample_rows(seed, universe, jobs, [k for _, k, _ in jobs]))
        for task in call:
            yield [np.array([next(rows) for _ in range(lo, hi)], np.int64) for _, lo, hi in task]


def _usable_cpus() -> int:
    """The CPUs this process may run on: more pool workers than that only
    queue behind each other."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _campaign(worker, spec: ExperimentSpec, totals: dict[int, int], chunk: int,
              *extra) -> list:
    """Run `worker` on the indices [0, totals[size]) of every size: colex
    ranks in exhaustive mode, otherwise sample indices.

    The (size, index) pairs of all sizes in order are cut into tasks of
    `chunk` consecutive pairs, each its (size, lo, hi) index ranges in
    order, so a task may span sizes.  The tasks are dealt round-robin into
    w batches, w being --workers capped at the tasks and at the CPUs this
    process may use, so the sizes of a `geometry` run, whose costs grow
    with the size, are spread evenly.  The worker runs once per batch (p,
    n, d, mode, seed, tasks, *extra), inline or in a pool, and returns a
    list of results per task; these come back concatenated in task order.
    """
    # Task i holds the pairs i*chunk .. (i+1)*chunk - 1; a size is cut where
    # its pairs cross a multiple of chunk.
    packed: dict[int, list[tuple[int, int, int]]] = {}
    start = 0
    for s, total in totals.items():
        cuts = [0, *range(-start % chunk or chunk, total, chunk), total] if total else []
        for lo, hi in zip(cuts, cuts[1:]):
            packed.setdefault((start + lo) // chunk, []).append((s, lo, hi))
        start += total
    tasks = list(packed.values())
    w = max(1, min(spec.workers, len(tasks), _usable_cpus()))
    batches = [(spec.p, spec.n, spec.d, spec.mode, spec.seed, tasks[i::w], *extra)
               for i in range(w)]
    if w == 1:
        results = [worker(batches[0])]
    else:
        # Imported here: a run that starts no pool does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=w) as pool:
            results = list(pool.map(worker, batches))
    return [res for i in range(len(tasks)) for res in results[i % w][i // w]]


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------

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
    return np.array([cover_verdict(PointSet.from_flat(field, 1, a), d).covers_units
                     for a in subsets], dtype=bool)


def _oracle_failure(field: Field, d: int, subset: list) -> dict:
    """The report entry of a set that `_covers` found not covering.  Its
    missing list comes from the per-set oracle, which must agree."""
    verdict = cover_verdict(PointSet.from_flat(field, 1, subset), d)
    if verdict.covers_units:
        raise RuntimeError(f"block verdict and cover_verdict disagree on {subset}")
    return {"size": len(subset), "subset": subset,
            "missing": verdict.missing[:MISSING_REPORT_LIMIT]}


def _cover_task(batch) -> list[list[dict]]:
    """Per task of a `_campaign` batch, one result per (size, lo, hi) segment."""
    p, n, d, mode, seed, tasks = batch
    field = get_field(p, n)
    out = [[] for _ in tasks]
    for results, task, drawn in zip(out, tasks, _draw(mode, field.q, tasks, seed, TAG_COVER)):
        for (size, lo, hi), subsets in zip(task, drawn):
            covers = _covers(field, d, subsets)
            failing = np.flatnonzero(~covers & (size >= min_threshold_size(field.q, d)))
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


def _last(rows: np.ndarray) -> np.ndarray:
    """max(R) of every row R, as int64; -1 for the empty row."""
    return rows[:, -1].astype(np.int64) if rows.shape[1] else np.full(len(rows), -1)


def _children(parents: list[np.ndarray], universe: int):
    """The rows R | {u} for every row R of the blocks `parents` and every u
    in range(universe) above max(R), parent by parent, in blocks of at most
    SUBSET_CHUNK rows."""
    for block in parents:
        last = _last(block)
        ends = np.cumsum(universe - 1 - last)
        for lo in range(0, int(ends[-1]), SUBSET_CHUNK):
            j = np.arange(lo, min(lo + SUBSET_CHUNK, int(ends[-1])))
            owner = np.searchsorted(ends, j, side="right")
            # Parent o's children take the indices from
            # ends[o] - (universe - 1 - last[o]) to ends[o] - 1, with u from
            # last[o] + 1 to universe - 1.
            u = j - ends[owner] + universe
            yield np.hstack([block[owner], u[:, None].astype(block.dtype)])


def _noncovering_levels(field: Field, d: int, lo: int, top: int):
    """Yield (k, decided, kept) for each level k decided, up to `top`: the
    number of orbit representatives of size k that got a `_covers` verdict,
    and those of them whose d-fold sumset of A*A misses a unit, as blocks
    of at most SUBSET_CHUNK rows.  A representative holds 1 and is stored
    as the row R of `_representatives`, in the smallest unsigned dtype that
    holds q - 1.

    A subset B of A gives dB^2 inside dA^2, so the sets that miss a unit
    are closed under taking subsets.  Each representative S of size k >= 2
    has one parent, S minus the largest element of S \\ {1}, which holds 1
    and misses a unit when S does.  So level 1 decides {1}, and level k
    decides the children of the non-covering rows of level k - 1, the
    sets R | {u} with u > max(R); all other representatives of size k
    cover.  After an empty level every larger set covers, and the search
    stops.

    The levels below `lo` >= 1, the least size asked for, only lead up to
    it.  They are searched while the sets decided stay within the number of
    representatives of the sizes lo..top; past that, every representative
    of size lo is decided, in colex order, and the search goes on from
    there.  So a run decides at most twice as many sets as those
    representatives.
    """
    q = field.q
    dtype = np.min_scalar_type(q - 1)
    direct = sum(math.comb(q - 1, k - 1) for k in range(lo, top + 1))
    k, count, blocks = 1, 1, [np.zeros((1, 0), dtype=dtype)]
    decided = 0
    while True:
        if k < lo and decided + count > direct:
            k, count = lo, math.comb(q - 1, lo - 1)
            blocks = (colex_unrank(q - 1, lo - 1, i, min(i + SUBSET_CHUNK, count)).astype(dtype)
                      for i in range(0, count, SUBSET_CHUNK))
        decided += count
        kept = []
        for rest in blocks:
            rest = rest[~_covers(field, d, _representatives(rest))]
            if not len(rest):
                continue
            # Small blocks are merged, so that the next level's verdict
            # calls stay large.
            if kept and len(kept[-1]) + len(rest) <= SUBSET_CHUNK:
                kept[-1] = np.concatenate([kept[-1], rest])
            else:
                kept.append(rest)
        yield k, count, kept
        if not kept or k == top:
            return
        k += 1
        count = sum(int((q - 2 - _last(rows)).sum()) for rows in kept)
        blocks = _children(kept, q - 1)


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


def _clip_sizes(sizes: tuple[int, int], universe: int) -> range:
    """An explicit size range clipped to 0..universe.  A range holding no
    size in 1..universe is refused, so a run cannot pass having checked
    nothing."""
    lo, hi = sizes
    if hi < 1 or lo > universe:
        raise BadSpecError(f"size range {lo}..{hi} holds no size in 1..{universe}")
    return range(max(lo, 0), min(hi, universe) + 1)


def _scalar_sizes(spec: ExperimentSpec, q: int, s_min: int) -> range:
    """The sizes of A a cover command checks: spec.sizes clipped to 0..q,
    or every size from the threshold up."""
    if spec.sizes is None:
        return range(min(s_min, q + 1), q + 1)
    return _clip_sizes(spec.sizes, q)


def run_cover_exhaustive(spec: ExperimentSpec) -> RunReport:
    """Tally every subset of F_q of the sizes asked for from the kept
    levels of `_noncovering_levels`, the sets that miss a unit."""
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
    for k, level, kept in _noncovering_levels(field, d, lo, sizes[-1]):
        verdicts += level
        # Coverage does not change under A -> cA, and a k-set with m units
        # has m images cA that hold 1, so a representative stands for
        # (q - 1)/m sets: m = k without 0, k - 1 with 0.
        with_zero = sum(int((rest[:, :1] == 0).sum()) for rest in kept)
        for reps, units in ((sum(map(len, kept)) - with_zero, k), (with_zero, k - 1)):
            if reps:
                sets, remainder = divmod((q - 1) * reps, units)
                if remainder:
                    raise RuntimeError(f"{reps} representatives of size {k} with "
                                       f"{units} units are not whole orbits")
                noncovering[k] = noncovering.get(k, 0) + sets
        if k >= first:
            failing += [row for rest in kept for row in _representatives(rest).tolist()]
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
    from .sampling import Streams
    covered_count = 0
    min_cover_ratio = None
    max_noncover_ratio = None
    # The samples are drawn in step, DRAW_CAP / q at a time, to bound the
    # draws' arrays.
    chunk = max(1, DRAW_CAP // field.q)
    for lo in range(0, samples, chunk):
        streams = Streams(seed, [(i, 0, TAG_BILINEAR) for i in range(lo, min(samples, lo + chunk))])
        drawn = [streams.choice(field.q, streams.integers(1, field.q)[:, 0]) for _ in range(2 * d)]
        for rows in zip(*drawn):
            sets = [PointSet.from_flat(field, 1, row) for row in rows]
            verdict = bilinear_cover(sets[:d], sets[d:])
            ratio = verdict.extras["ratio"]
            if verdict.covers_units:
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
        _campaign(_cover_task, spec, dict.fromkeys(sizes, spec.samples), chunk), s_min)

    extras = {"threshold_min_size": s_min}
    if spec.mode == "structured":
        structured = []
        for name, a in roster:
            verdict = cover_verdict(a, d)
            structured.append({"name": name, **verdict.to_report_dict()})
            if verdict.threshold_met and not verdict.covers_units:
                failures.append({"size": a.count, "structured": name,
                                 "missing": verdict.missing[:MISSING_REPORT_LIMIT]})
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
        covered, _ = covers_units(sumset_of_products(sub, d))
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
                 "covers_units": verdict.covers_units,
                 "ratio": a.count / q ** ((d + 1) / (2 * d))}
        families.append(entry)
        if not verdict.covers_units and (best is None or a.count > best["size"]):
            best = entry
        if verdict.threshold_met and not verdict.covers_units:
            report.counterexamples.append({"structured": name, "size": a.count})
    extras["families"] = families
    extras["largest_noncovering"] = best
    report.tallies = {"families_checked": len(families)}
    report.extras = extras
    report.flag_counterexamples()
    return report


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------

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
