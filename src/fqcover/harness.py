"""Experiment harness: self-tests, sweeps, sampling campaigns, reports.

Reproducibility contract: a command with a fixed spec and seed produces a
byte-identical JSON report across runs and across worker counts.  Three
things make that work:

* the RNG is Philox (counter-based): every sampled object gets its own
  stream keyed by (seed; sample index, size, purpose tag), so sharding
  the sample indices over workers cannot change what is drawn;
* the tasks, contiguous index ranges, are dealt round-robin into one
  batch per worker, and the results are put back in task order and merged
  by addition / sorted concatenation, both order-independent;
* wall-clock timing is printed to stderr by the CLI and never enters the
  JSON body.

Integers with absolute value >= 2^53 are serialized as decimal strings
so the reports survive JSON readers that parse numbers as doubles.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

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
    SpectralFn,
    char_matrix,
    convolve_diff,
    diff_convolution_hat_check,
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
    hat_identity_close,
    hyperplane_sum,
    nu_bruteforce,
    remainder_sides,
    remainder_verdicts,
    second_moment_sides,
)

EXHAUSTIVE_BUDGET = 10 ** 7
# Products a*a' (the sum of |A|^2) that the structured sets of one run may
# form.  The roster of GF(2^14) needs 3.7e8, that of GF(2^16) 6.1e9.
STRUCTURED_PAIR_BUDGET = 10 ** 9
# Candidate orbit representatives per verdict block of the cover-exhaustive
# search.
SUBSET_CHUNK = 2048
JSON_INT_LIMIT = 1 << 53

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
ALL_CHECKS = POINT_CHECKS + ("bilinear",)


class BadSpecError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    pass


@dataclass
class ExperimentSpec:
    p: int
    n: int = 1
    d: int = 2
    mode: str = "sample"            # exhaustive | sample | structured
    sizes: tuple[int, int] | None = None
    samples: int = 100
    seed: int = 0
    checks: tuple[str, ...] = ()
    workers: int = 1
    out: str | None = None
    csv: str | None = None

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
        bad = set(self.checks) - set(ALL_CHECKS)
        if bad:
            raise BadSpecError(f"unknown checks: {sorted(bad)}")
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


@dataclass
class RunReport:
    command: str
    spec: dict
    field: dict | None
    tallies: dict = dc_field(default_factory=dict)
    counterexamples: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)
    status: str = "ok"
    exit_code: int = EXIT_OK
    # Counts of the work done, for the CLI's stderr line; never serialized.
    stats: dict = dc_field(default_factory=dict)

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
# RNG streams and sampling
# ----------------------------------------------------------------------

_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def get_field(p: int, n: int) -> Field:
    f = _FIELD_CACHE.get((p, n))
    if f is None:
        f = make_field(p, n)
        _FIELD_CACHE[(p, n)] = f
    return f


def stream(seed: int, index: int, size: int, tag: int) -> np.random.Generator:
    """An independent Philox stream for one sampled object."""
    return np.random.Generator(np.random.Philox(key=seed,
                                                counter=[index, size, tag, 0]))


def sample_indices(rng: np.random.Generator, universe: int, size: int) -> np.ndarray:
    return np.sort(rng.choice(universe, size=size, replace=False))


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


def _require_pair_budget(roster: list[tuple[str, PointSet]]) -> None:
    """Refuse a structured roster whose product sets would take more than
    STRUCTURED_PAIR_BUDGET products, before any is formed."""
    pairs = sum(a.count ** 2 for _, a in roster)
    if pairs > STRUCTURED_PAIR_BUDGET:
        raise BudgetExceededError(
            f"the structured sets need {pairs} products, over the budget of "
            f"{STRUCTURED_PAIR_BUDGET}")


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
    rng = stream(seed, 0, 0, TAG_STRUCTURED)
    extra = sample_indices(rng, q ** d, min(q ** d, max(2, q // 2)))
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


def enumeration_budget(universe: int, sizes: list[int]) -> int:
    return sum(math.comb(universe, s) for s in sizes)


def require_budget(universe: int, sizes: list[int]) -> None:
    # Summed only until the budget is passed: over all the sizes of GF(4096),
    # the binomials alone take seconds.
    total = 0
    for s in sizes:
        total += math.comb(universe, s)
        if total > EXHAUSTIVE_BUDGET:
            raise BudgetExceededError(
                f"exhaustive enumeration needs at least {total} subsets, over the "
                f"budget of {EXHAUSTIVE_BUDGET}")


def _draw(mode: str, universe: int, size: int, lo: int, hi: int, seed: int,
          tag: int) -> np.ndarray:
    """The size-`size` subsets of range(universe) with indices lo..hi-1, one
    sorted subset per row: colex ranks in exhaustive mode, otherwise one
    Philox stream per sample index."""
    if mode == "exhaustive":
        return colex_unrank(universe, size, lo, hi)
    return np.array([sample_indices(stream(seed, i, size, tag), universe, size)
                     for i in range(lo, hi)], dtype=np.int64).reshape(hi - lo, size)


def _run_batch(worker, tasks: list) -> list:
    return [worker(t) for t in tasks]


def _campaign(worker, spec: ExperimentSpec, totals: dict[int, int], chunk: int,
              *extra) -> list:
    """Run `worker` on every chunk of the indices [0, totals[size]) of every
    size: colex ranks in exhaustive mode, otherwise sample indices.

    Each task is (p, n, d, mode, seed, size, lo, hi, *extra), and the
    results come back in task order at any worker count.  With w > 1
    workers, the tasks are dealt round-robin into w batches and each worker
    runs one, so a run pays one round trip per worker, not per task, and
    the sizes of a `geometry` run, whose costs grow with the size, are
    spread evenly.
    """
    tasks = [(spec.p, spec.n, spec.d, spec.mode, spec.seed, s, lo, min(lo + chunk, total),
              *extra) for s, total in totals.items() for lo in range(0, total, chunk)]
    w = min(spec.workers, len(tasks))
    if w <= 1:
        return _run_batch(worker, tasks)
    out = [None] * len(tasks)
    with ProcessPoolExecutor(max_workers=w) as pool:
        for i, batch in enumerate(pool.map(_run_batch, [worker] * w,
                                           [tasks[i::w] for i in range(w)])):
            out[i::w] = batch
    return out


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------

def _selftest_field(field: Field, seed: int) -> dict:
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


def _selftest_transforms(field: Field, d: int, seed: int) -> dict:
    q = field.q
    size = q ** d
    results = {}
    rng = stream(seed, field.q, d, TAG_SELFTEST)

    f = SpectralFn(field, d, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    back = fourier_invert(fourier_forward(f)).values
    results["inversion_roundtrip"] = bool(
        float(np.max(np.abs(back - f.values))) <= 1e-9 * max(1.0, float(np.max(np.abs(f.values)))))

    g = SpectralFn(field, d, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    lhs, rhs = plancherel_check(f, g)
    results["plancherel_random"] = bool(abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs)))

    e_bits = np.zeros(size, dtype=bool)
    e_bits[sample_indices(rng, size, max(1, min(size // 2, 48)))] = True
    e = PointSet(field, d, e_bits)
    ind = e.indicator()
    lhs, rhs = plancherel_check(ind, ind)
    results["plancherel_indicator"] = bool(abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs)))

    results["diff_convolution_hat"] = diff_convolution_hat_check(ind)

    if size ** 2 <= 3 ** 12:
        fast = fourier_forward(f).values
        direct = fourier_forward_direct(f).values
        results["forward_vs_direct"] = bool(float(np.max(np.abs(fast - direct))) <= 1e-9)
    return results


def run_selftest(spec: ExperimentSpec) -> RunReport:
    report = RunReport("selftest", spec.echo(), None)
    fields_meta = []
    failures = []
    passed = checked = 0
    for p, n in SELFTEST_ROSTER:
        field = get_field(p, n)
        fields_meta.append(field.descriptor())
        results = _selftest_field(field, spec.seed)
        for d in (1, 2, 3):
            for name, ok in _selftest_transforms(field, d, spec.seed).items():
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


def _cover_task(task) -> dict:
    p, n, d, mode, seed, size, lo, hi = task
    field = get_field(p, n)
    subsets = _draw(mode, field.q, size, lo, hi, seed, TAG_COVER)
    covers = _covers(field, d, subsets)
    failing = np.flatnonzero(~covers & (size >= min_threshold_size(field.q, d)))
    failures = [{**_oracle_failure(field, d, subsets[i].tolist()), "sample_index": lo + i}
                for i in failing.tolist()]
    return {"size": size, "checked": hi - lo, "covered": int(covers.sum()),
            "failures": failures}


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


def _orbit_tallies(field: Field, d: int, sizes: list[int], results: list,
                   s_min: int) -> tuple[dict, list]:
    """The per-size tallies and the failures of every subset of F_q of the
    given sizes, from per-size records of the orbit representatives: the
    covering ones without 0 and with 0, and at a threshold size the failing
    ones.

    Coverage does not change under A -> cA for c != 0, and a k-set A with m
    units has exactly m images cA that contain 1.  So the covering k-sets
    without 0 number (q - 1)/k times the covering representatives without
    0, and those with 0 (q - 1)/(k - 1) times those with 0.  The sets with
    no unit, {} and {0}, cover nothing.  A failing set is in the orbit
    {cB} of a failing representative B; each orbit is listed once.
    """
    q = field.q
    covered = {s: [0, 0] for s in sizes}
    reps = {u for u in ((), (0,)) if len(u) in covered and len(u) >= s_min}
    for res in results:
        for i, count in enumerate(res["covered"]):
            covered[res["size"]][i] += count
        reps.update(map(tuple, res["failing"]))
    tallies = {}
    for s in sizes:
        total = 0
        for count, units in zip(covered[s], (s, s - 1)):
            if count:
                sets, remainder = divmod((q - 1) * count, units)
                if remainder:
                    raise RuntimeError(f"orbit counts {covered[s]} of size {s} are not whole")
                total += sets
        tallies[str(s)] = {"checked": math.comb(q, s), "covered": total,
                           "threshold": s >= s_min}
    units = np.arange(1, q)[:, None]
    orbits = {tuple(row) for rep in reps for row in np.sort(
        field.mul_arrays(units, np.array(rep, dtype=np.int64)), axis=1).tolist()}
    return tallies, [_oracle_failure(field, d, list(subset)) for subset in sorted(orbits)]


def _clip_sizes(sizes: tuple[int, int], universe: int) -> list[int]:
    """An explicit size range clipped to 0..universe.  A range holding no
    size in 1..universe is refused, so a run cannot pass having checked
    nothing."""
    lo, hi = sizes
    if hi < 1 or lo > universe:
        raise BadSpecError(f"size range {lo}..{hi} holds no size in 1..{universe}")
    return list(range(max(lo, 0), min(hi, universe) + 1))


def _scalar_sizes(spec: ExperimentSpec, q: int, s_min: int) -> list[int]:
    """The sizes of A a cover command checks: spec.sizes clipped to 0..q,
    or every size from the threshold up."""
    if spec.sizes is None:
        return list(range(min(s_min, q + 1), q + 1))
    return _clip_sizes(spec.sizes, q)


def run_cover_exhaustive(spec: ExperimentSpec) -> RunReport:
    # The budget is applied to q before any table of the field is built.
    q, d = field_order(spec.p, spec.n), spec.d
    s_min = min_threshold_size(q, d)
    sizes = _scalar_sizes(spec, q, s_min)
    if not sizes:
        raise BadSpecError(f"no size in 1..{q} is above the cover threshold at "
                           f"d={d}; give --sizes")
    require_budget(q, sizes)
    field = get_field(spec.p, spec.n)
    report = RunReport("cover-exhaustive", spec.echo(), field.descriptor())
    # Without --sizes, the sizes below the threshold are scanned too, from
    # s_min - 1 down for as long as they fit what is left of the budget.
    scan: list[int] = []
    if spec.sizes is None:
        remaining = EXHAUSTIVE_BUDGET - enumeration_budget(q, sizes)
        for s in range(s_min - 1, 0, -1):
            remaining -= math.comb(q, s)
            if remaining < 0:
                break
            scan.append(s)
    def record(k: int, kept: list[np.ndarray]) -> dict:
        # Of the representatives of size k, C(q - 2, k - 1) lack 0 and
        # C(q - 2, k - 2) hold it; those not kept cover.
        count = sum(map(len, kept))
        with_zero = sum(int((rest[:, :1] == 0).sum()) for rest in kept)
        return {"size": k, "covered": [
            math.comb(q - 2, k - 1) - (count - with_zero),
            (math.comb(q - 2, k - 2) if k > 1 else 0) - with_zero],
            "failing": [row for rest in kept for row in _representatives(rest).tolist()]
            if k >= s_min else []}

    results = {k: record(k, []) for k in sizes + scan if k > 0}
    # The search runs in this process at any --workers: a whole run's
    # verdicts take less time than a pool takes to start.
    verdicts = 0
    for k, level, kept in _noncovering_levels(field, d, min(results), max(results)):
        verdicts += level
        if k in results:
            results[k] = record(k, kept)
    tallies, failures = _orbit_tallies(field, d, sizes + scan, results.values(), s_min)
    report.tallies = {str(s): tallies[str(s)] for s in sizes}
    report.counterexamples = sorted(failures, key=lambda c: (c["size"], c["subset"]))

    extras = {"threshold_min_size": s_min, "budget": enumeration_budget(q, sizes)}
    if spec.sizes is None and not failures:
        # The smallest size from which up to the threshold every subset
        # covers.  Reported, never asserted.
        empirical = s_min
        for s in scan:
            if tallies[str(s)]["covered"] < tallies[str(s)]["checked"]:
                break
            empirical = s
        extras["empirical_all_cover_min_size"] = empirical
        # The lowest size the scan vouches for is that minimum itself; the
        # key stays because it is part of the report.
        extras["empirical_scan_floor"] = empirical
    report.extras = extras
    report.stats = {"verdicts": verdicts}
    report.flag_counterexamples()
    return report


def _bilinear_campaign(field: Field, d: int, seed: int, samples: int) -> dict:
    covered_count = 0
    min_cover_ratio = None
    max_noncover_ratio = None
    for i in range(samples):
        rng = stream(seed, i, 0, TAG_BILINEAR)
        a_sets, b_sets = [], []
        for _ in range(2 * d):
            size = int(rng.integers(1, field.q))
            (a_sets if len(a_sets) < d else b_sets).append(
                PointSet.from_flat(field, 1, sample_indices(rng, field.q, size)))
        verdict = bilinear_cover(a_sets, b_sets)
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
    field = get_field(spec.p, spec.n)
    q, d = field.q, spec.d
    report = RunReport("cover-sample", spec.echo(), field.descriptor())
    if spec.mode == "sample" and spec.samples == 0:
        raise BadSpecError("sample mode with --samples 0 checks nothing")

    roster = structured_scalar_sets(field) if spec.mode == "structured" else []
    _require_pair_budget(roster)

    s_min = min_threshold_size(q, d)
    sizes = _scalar_sizes(spec, q, s_min)
    report.tallies, failures = _scalar_tallies(
        _campaign(_cover_task, spec, dict.fromkeys(sizes, spec.samples), 256), s_min)

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
    if "bilinear" in spec.checks:
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
    field = get_field(spec.p, spec.n)
    q, d = field.q, spec.d
    report = RunReport("sharpness", spec.echo(), field.descriptor())
    extras: dict = {}
    roster = structured_scalar_sets(field)
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
    """Run the requested point-set checks on every set of the stack e (sets
    of one size, one per row); per set, the per-check booleans plus the
    exact remainder sharpness fraction.

    Every check reads a set with the origin stripped, its core.  nu and
    the line counts are computed once, for the stack as drawn, and the
    origin's share is taken off: its dot product with every point is 0
    and it lies on every line, so it adds k^2 - |core|^2 pairs to nu(0)
    and one point to each line count and each hyperplane sum.  The
    coverage threshold is taken on the set as drawn; its verdict is the
    same either way, because the origin adds only the dot product 0, which
    coverage of the units ignores.
    """
    q, k = field.q, e.count
    pad = e.bits[:, 0].astype(np.int64)
    size = k - pad
    outs: list[dict] = [{} for _ in pad]

    def put(check, values) -> None:
        for out, v in zip(outs, values):
            out[check] = v

    # nu and the line counts are looked up on their module, where tests
    # count the calls.
    if {"cover", "remainder", "second_moment", "keylowerbound"} & set(checks):
        counts = incidence.nu(e).counts
        counts[:, 0] -= k * k - size ** 2
    if {"identities", "second_moment", "keylowerbound"} & set(checks):
        lines = incidence.line_counts_all(e) - pad[:, None]
        max_line = lines[:, 1:].max(axis=1)
    if "cover" in checks and not point_cover_threshold(e):
        put("cover", [None] * len(outs))
    elif "cover" in checks:
        for out, missing in zip(outs, missing_units(counts)):
            out["cover"] = not missing
            if missing:
                out["cover_missing"] = missing[:MISSING_REPORT_LIMIT]
    if "remainder" in checks:
        ok, _, worst = remainder_verdicts(*remainder_sides(counts, size, q, d))
        put("remainder", ok.tolist())
        put("sharpness_frac", [(w ** 2, n ** 2 * q ** (d + 1))
                               for w, n in zip(worst.tolist(), size.tolist())])
    if "identities" in checks:
        core = e.bits.astype(np.float64)
        core[:, 0] = 0
        hsum = hyperplane_sum(e).values.real - pad[:, None]
        conv = convolve_diff(SpectralFn(field, d, core), SpectralFn(field, d, core)).values
        hats = fourier_forward(SpectralFn(field, d, np.stack([hsum, conv, core]))).values
        put("identities", (hat_identity_close(hats[0], lines, size, q)[0]
                           & diff_hat_close(hats[1], hats[2], q ** d)).tolist())
    if "second_moment" in checks:
        lhs, rhs = second_moment_sides(counts, size, max_line, q, d)
        put("second_moment", (lhs <= rhs).tolist())
    if "keylowerbound" in checks:
        lhs, rhs = dot_set_lower_bound_sides((counts > 0).sum(axis=1), max_line, size, q, d)
        put("keylowerbound", (lhs >= rhs).tolist())
    return outs


def _geometry_task(task) -> list[dict]:
    p, n, d, mode, seed, size, lo, hi, checks = task
    field = get_field(p, n)
    drawn = _draw(mode, field.q ** d, size, lo, hi, seed, TAG_POINTS)
    # Stacks of as many sets as keep a q^d array of complex values per set
    # under DENSE_BLOCK_BYTES, and at least one set.
    outcomes = [res for rows in row_blocks(len(drawn), field.q ** d)
                for res in _geometry_checks(field, d, PointSet.from_flat(field, d, drawn[rows]),
                                            checks)]
    for i, (res, flats) in enumerate(zip(outcomes, drawn), lo):
        res["size"] = size
        res["name"] = (f"size{size}_colex{tuple(flats.tolist())}" if mode == "exhaustive"
                       else f"size{size}#{i}")
        res["flats"] = flats
    return outcomes


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
    """Run the point-set checks.  With spec.csv set, also write the nu
    profile of the sharpest case, with the origin stripped, as CSV.  A space
    whose q^d arrays or q x q character matrix pass the field layer's own
    caps is refused before anything is built."""
    q, d = spec.p ** spec.n, spec.d
    if q ** d > DEFAULT_SIZE_CAP or q > MUL_TABLE_MAX_Q:
        raise BudgetExceededError(
            f"F_{q}^{d} needs {16 * q ** d} bytes per function on its {q ** d} points "
            f"and {16 * q * q} for the q x q character matrix; the caps are "
            f"{DEFAULT_SIZE_CAP} points and q <= {MUL_TABLE_MAX_Q}")
    field = get_field(spec.p, spec.n)
    report = RunReport("geometry", spec.echo(), field.descriptor())
    checks = tuple(c for c in spec.checks if c in POINT_CHECKS) or POINT_CHECKS
    universe = q ** d

    if spec.sizes is not None:
        sizes = _clip_sizes(spec.sizes, universe)
    elif spec.mode == "exhaustive":
        # From the least size with |E|^2 > q^{d+1}, the point cover threshold.
        sizes = list(range(math.isqrt(q ** (d + 1)) + 1, universe + 1))
    else:
        sizes = list(range(1, min(universe, 100) + 1))

    if spec.mode == "exhaustive":
        require_budget(universe, sizes)
        totals = {s: math.comb(universe, s) for s in sizes}
    else:
        totals = dict.fromkeys(sizes, spec.samples)
    outcomes = [res for chunk in _campaign(_geometry_task, spec, totals, 64, checks)
                for res in chunk]
    if spec.mode == "structured":
        for name, e in structured_point_sets(field, d, spec.seed):
            res = _geometry_checks(field, d, PointSet(field, d, e.bits[None]), checks)[0]
            res["size"] = e.count
            res["name"] = name
            res["flats"] = e.flat_indices()
            outcomes.append(res)

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
        core = PointSet.from_flat(field, d, worst[3]).strip_origin()
        with open(spec.csv, "w", newline="") as fh:
            nu_bruteforce(core).write_csv(fh)
    return report


# ----------------------------------------------------------------------
# d-of-eps
# ----------------------------------------------------------------------

def run_d_of_eps(eps: Fraction) -> RunReport:
    d_cover, d_proportion = d_for_epsilon(eps)
    report = RunReport("d-of-eps", {"eps": str(Fraction(eps))}, None)
    report.extras = {"d_cover": d_cover, "d_proportion": d_proportion}
    return report
