"""Shared run machinery of the commands: specs, reports, fields, draws.

The commands live in `selftest`, `scalar` (cover-exhaustive, cover-sample,
sharpness, d-of-eps) and `geometry`; this module holds what they share.

Reproducibility contract: a command with a fixed spec and seed produces a
byte-identical JSON report across runs and across worker counts.  Three
things make that work:

* the RNG is Philox (counter-based): every sampled object gets its own
  stream keyed by (seed; sample index, size, purpose tag), laid out in
  one place, `_streams`, so sharding the sample indices over workers
  cannot change what is drawn.  Every draw is numpy's, computed by
  `sampling` without numpy.random.  The streams are not independent: the
  sample index sits in Philox counter word 0, the word that Philox
  increments, so streams of adjacent indices share values (12 of the
  first 20 draws of (5, 10, 1) are also drawn by (6, 10, 1));
* the tasks, runs of consecutive (size, index) pairs, are dealt
  round-robin into one batch per worker, which draws them in sampler calls
  of up to DRAW_CAP values; the results are put back in task order and
  merged by addition / sorted concatenation, both order-independent;
* wall-clock timing is printed to stderr by the CLI and never enters the
  JSON body.

Integers with absolute value >= 2^53 are serialized as decimal strings
so the reports survive JSON readers that parse numbers as doubles.

Each CLI run is a cold process, often without a bytecode cache, so the
package loads at import only what a run of the main commands executes.
The spec and the report are plain classes, not dataclasses, whose
methods would be generated and compiled on every import.  `fractions`
(which loads `decimal`) and `csv` are imported inside `scalar.run_d_of_eps`
and the `--csv` branch of `geometry.run_geometry`, `sampling` inside
`_streams`, where a run draws, and the process pool where one starts.  The CLI imports the
command modules eagerly: one loaded on demand would compile in the run.

Runs are refused before they start work they cannot finish: exhaustive
enumeration past EXHAUSTIVE_BUDGET subsets and campaigns that would draw
more than EXHAUSTIVE_BUDGET sets (the bilinear samples counted in), both
before the field is built, and structured sets, sampled sets and
bilinear samples whose per-set verdicts would form more than
`scalar.PAIR_BUDGET` pairs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import __version__
from .gf import Field, make_field

EXHAUSTIVE_BUDGET = 10 ** 7
DRAW_CAP = 1 << 16  # values one sampler call draws, unless one task alone holds more
SUBSET_CHUNK = 2048  # candidate rows per `decide` call of `levels`
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
        return {str(k): _jsonable(v) for k, v in obj.items()}
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


def _divisors(m: int) -> list[int]:
    """The divisors of m >= 1 in increasing order, by trial division up to
    sqrt(m)."""
    low = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return low + [m // d for d in reversed(low) if d * d != m]


def _clip_sizes(sizes: tuple[int, int], universe: int) -> range:
    """An explicit size range clipped to 0..universe.  A range holding no
    size in 1..universe is refused, so a run cannot pass having checked
    nothing."""
    lo, hi = sizes
    if hi < 1 or lo > universe:
        raise BadSpecError(f"size range {lo}..{hi} holds no size in 1..{universe}")
    return range(max(lo, 0), min(hi, universe) + 1)


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


def levels(universe: int, decide, lo: int, top: int):
    """Search a family of sets of range(universe) that is closed under
    taking subsets, level by level: level k holds its (k - 1)-sets, one
    sorted row each.  `decide(rows)` takes a block of at most SUBSET_CHUNK
    candidate rows and returns the mask of those in the family.  Yield
    (k, decided, kept) for each level k searched, up to `top`: the number
    of candidates and the rows kept, in the smallest unsigned dtype that
    holds `universe`.

    Level 1 decides the empty row, level k the children R | {u}, u > max(R),
    of the rows kept at level k - 1: each set of the family has its parent,
    the set less its largest element, in the family.  The search stops
    after an empty level.  The levels below `lo` >= 1 only lead up to it,
    and are searched while the candidates stay within the rows of levels
    lo..top; past that, every row of level lo is decided, in colex order.
    So a run decides at most twice as many rows as those levels hold.
    """
    dtype = np.min_scalar_type(universe)
    direct = sum(math.comb(universe, k - 1) for k in range(lo, top + 1))
    # ends is None where the candidates of level k are the colex ranks;
    # otherwise parent o's children take the indices from
    # ends[o] - (universe - 1 - max(R_o)) to ends[o] - 1, with u from
    # max(R_o) + 1 to universe - 1.
    k, count, decided, ends = 1, 1, 0, None
    while True:
        if k < lo and decided + count > direct:
            k, count, ends = lo, math.comb(universe, lo - 1), None
        decided += count
        parts = []
        for i in range(0, count, SUBSET_CHUNK):
            j = min(i + SUBSET_CHUNK, count)
            if ends is None:
                rows = colex_unrank(universe, k - 1, i, j).astype(dtype)
            else:
                index = np.arange(i, j)
                owner = np.searchsorted(ends, index, side="right")
                u = index - ends[owner] + universe
                rows = np.hstack([kept[owner], u[:, None].astype(dtype)])
            parts.append(rows[decide(rows)])
        kept = np.concatenate(parts) if parts else np.empty((0, k - 1), dtype)
        yield k, count, kept
        if not len(kept) or k == top:
            return
        k += 1
        last = kept[:, -1].astype(np.int64) if k > 2 else np.full(len(kept), -1)
        ends = np.cumsum(universe - 1 - last)
        count = int(ends[-1])


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


def _streams(seed: int, tag: int, keys, universe: int | None = None, sizes=None):
    """The Philox streams of the (sample index, size) pairs keys for one
    purpose tag, each keyed by the counter (index, size, tag): the one
    place that lays out a stream's key.  With a universe, row k is the
    sorted subset of range(universe) of size sizes[k] drawn on stream k,
    all from one `sample_rows` call; without, the `Streams` themselves,
    for draws in step."""
    # Imported here, as the process pool is: a run that draws nothing does
    # not load the sampler.
    from . import sampling
    counters = [(i, size, tag) for i, size in keys]
    if universe is None:
        return sampling.Streams(seed, counters)
    return sampling.sample_rows(seed, universe, counters, sizes)


def _draw(mode: str, universe: int, tasks, seed: int, tag: int):
    """Per task in turn, per (size, lo, hi) segment, the size-`size` subsets
    of range(universe) with indices lo..hi-1, one sorted subset per row of
    an int64 array: colex ranks in exhaustive mode, otherwise one
    `_streams` draw per run of tasks, cut only where its values would pass
    DRAW_CAP, on one Philox stream per (sample index, size)."""
    if mode == "exhaustive":
        yield from ([colex_unrank(universe, *segment) for segment in task] for task in tasks)
        return
    calls, held = [], 0
    for task in tasks:
        values = sum(size * (hi - lo) for size, lo, hi in task)
        if not calls or held + values > DRAW_CAP:
            calls.append([])
            held = 0
        calls[-1].append(task)
        held += values
    for call in calls:
        keys = [(i, size) for task in call for size, lo, hi in task for i in range(lo, hi)]
        rows = iter(_streams(seed, tag, keys, universe, [k for _, k in keys]))
        for task in call:
            yield [np.array([next(rows) for _ in range(lo, hi)], np.int64) for _, lo, hi in task]


def _usable_cpus() -> int:
    """The CPUs this process may run on: more pool workers than that only
    queue behind each other."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _pack(totals, chunk: int):
    """Yield the tasks of `_campaign` in order, given (size, total) pairs:
    task i holds the pairs i*chunk .. (i+1)*chunk - 1 of the (size, index)
    pairs of all sizes in order, index in [0, total), as its (size, lo, hi)
    index ranges in order.  Lazily, so that the pair budget of `scalar`
    can stop counting early."""
    # A task ends, and a size is cut, where the running pair index
    # start + lo reaches a multiple of chunk.
    task, start = [], 0
    for s, total in totals:
        cuts = [0, *range(-start % chunk or chunk, total, chunk), total] if total else []
        for lo, hi in zip(cuts, cuts[1:]):
            if task and (start + lo) % chunk == 0:
                yield task
                task = []
            task.append((s, lo, hi))
        start += total
    if task:
        yield task


def _campaign(worker, spec: ExperimentSpec, totals: dict[int, int], chunk: int,
              *extra) -> list:
    """Run `worker` on the indices [0, totals[size]) of every size: colex
    ranks in exhaustive mode, otherwise sample indices.

    The tasks are those of `_pack`, so a task may span sizes.  They are
    dealt round-robin into w batches, w being --workers capped at the tasks
    and at the CPUs this process may use, so the sizes of a `geometry` run,
    whose costs grow with the size, are spread evenly.  The worker runs once
    per batch (p, n, d, mode, seed, tasks, *extra), inline or in a pool, and
    returns a list of results per task; these come back concatenated in
    task order.
    """
    tasks = list(_pack(totals.items(), chunk))
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
