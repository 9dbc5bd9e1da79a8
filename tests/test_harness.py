import ast
import concurrent.futures
import itertools
import json
import math
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fqcover.cli as cli
import fqcover.covering as covering
import fqcover.geometry as geometry
import fqcover.harness as harness
import fqcover.incidence as incidence
import fqcover.sampling as sampling
import fqcover.scalar as scalar
import fqcover.selftest as selftest
from fqcover.covering import (
    cover_verdict,
    dense_block_rows,
    dot_product_set,
    missing_units,
)
from fqcover.incidence import PointSet, line_counts_all, nu_bruteforce

from fqcover.geometry import run_geometry, structured_point_sets
from fqcover.gf import make_field
from fqcover.harness import (
    BadSpecError,
    BudgetExceededError,
    ExperimentSpec,
    canonical_json,
    colex_unrank,
    get_field,
    require_budget,
)
from fqcover.scalar import (
    run_cover_exhaustive,
    run_cover_sample,
    run_d_of_eps,
    run_sharpness,
    structured_scalar_sets,
)
from fqcover.selftest import run_selftest
from conftest import src_env
from numpy_oracle import sample_indices, stream


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "fqcover", *args],
                          capture_output=True, text=True, env=src_env())


def _patch_commands(monkeypatch, name, value):
    """Set `name` to `value` in every command module that imports it, the
    modules whose code looks it up."""
    found = [m for m in (selftest, scalar, geometry) if hasattr(m, name)]
    assert found, name
    for module in found:
        monkeypatch.setattr(module, name, value)


# ---------------------------------------------------------------------------
# enumeration order and budget
# ---------------------------------------------------------------------------

def _colex_tuples(universe, k):
    return [tuple(r) for r in colex_unrank(universe, k, 0, math.comb(universe, k)).tolist()]


def test_colex_order_golden():
    got = _colex_tuples(5, 3)
    assert got[:5] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4)]
    assert len(got) == math.comb(5, 3)
    assert len(set(got)) == len(got)


def test_colex_covers_all_sizes():
    assert _colex_tuples(4, 0) == [()]
    assert _colex_tuples(4, 4) == [(0, 1, 2, 3)]


def _colex_reference(universe, k):
    return sorted(itertools.combinations(range(universe), k), key=lambda c: c[::-1])


@pytest.mark.parametrize("universe", range(12))
def test_colex_unrank_matches_reference_order(universe):
    for k in range(universe + 1):
        ref = _colex_reference(universe, k)
        assert _colex_tuples(universe, k) == ref
        rows = colex_unrank(universe, k, 0, len(ref))
        assert rows.shape == (len(ref), k)
        for lo in range(0, len(ref) + 1, 5):
            for hi in (lo, lo + 1, lo + 7, len(ref)):
                hi = min(hi, len(ref))
                got = [tuple(r) for r in colex_unrank(universe, k, lo, hi).tolist()]
                assert got == ref[lo:hi]


def test_colex_unrank_rejects_ranks_out_of_range():
    with pytest.raises(ValueError):
        colex_unrank(5, 2, 0, 11)
    with pytest.raises(ValueError):
        colex_unrank(200, 100, 0, 1)


@pytest.mark.parametrize("lo,seen", [(1, range(1, 11)), (5, range(1, 11)),
                                     (9, [1, 2, 3, 4, 9, 10])])
def test_levels_searches_a_down_closed_family(lo, seen, monkeypatch):
    # The sets R of range(12) whose elements sum to less than 30 are closed
    # under taking subsets; level k holds those of size k - 1, the largest
    # two of size 8, so the search stops after the empty level 10, below
    # top.  With blocks of 7 rows most levels take several decide calls.
    # From level 9 up, levels 1..5 would decide 794 rows, more than the 781
    # of levels 9..11, so after level 4 every row of level 9 is decided, in
    # colex order.
    monkeypatch.setattr(harness, "SUBSET_CHUNK", 7)
    universe, bound, top = 12, 30, 11
    family = {k: sorted(r for r in itertools.combinations(range(universe), k - 1)
                        if sum(r) < bound) for k in range(1, top + 1)}
    asked = {}

    def decide(rows):
        assert 0 < len(rows) <= 7 and rows.dtype == np.uint8
        asked.setdefault(rows.shape[1] + 1, []).extend(map(tuple, rows.tolist()))
        return rows.sum(axis=1, dtype=np.int64) < bound

    got = list(harness.levels(universe, decide, lo, top))
    assert [k for k, _, _ in got] == list(seen)
    for k, decided, kept in got:
        assert kept.dtype == np.uint8 and kept.shape == (len(family[k]), k - 1)
        assert sorted(map(tuple, kept.tolist())) == family[k]
        if k == 1:
            expect = [()]
        elif k - 1 not in asked:
            expect = list(itertools.combinations(range(universe), k - 1))
        else:
            expect = [r + (u,) for r in family[k - 1]
                      for u in range(max(r, default=-1) + 1, universe)]
        assert decided == len(asked[k]) == len(expect)
        assert sorted(asked[k]) == sorted(expect)
    assert sum(decided for _, decided, _ in got) <= 2 * sum(
        math.comb(universe, k - 1) for k in range(lo, top + 1))


def test_budget_guard():
    assert require_budget(math.comb(9, s) for s in [6, 7, 8, 9]) == 130
    with pytest.raises(BudgetExceededError) as exc:
        require_budget(math.comb(101, s) for s in range(32, 102))
    assert "sets" in str(exc.value)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    ExperimentSpec(p=5).validate()
    with pytest.raises(BadSpecError):
        ExperimentSpec(p=5, mode="nope").validate()
    with pytest.raises(BadSpecError):
        ExperimentSpec(p=5, d=0).validate()
    with pytest.raises(BadSpecError):
        ExperimentSpec(p=5, sizes=(4, 2)).validate()
    with pytest.raises(BadSpecError, match="repeated"):
        ExperimentSpec(p=5, checks=("cover", "cover")).validate()
    with pytest.raises(BadSpecError):
        ExperimentSpec(p=5, seed=1 << 64).validate()


def test_spec_echo_excludes_execution_fields():
    spec = ExperimentSpec(p=5, workers=8, csv="y.csv")
    echo = spec.echo()
    assert "workers" not in echo and "csv" not in echo


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def test_canonical_json_big_ints_as_strings():
    small = (1 << 53) - 1
    big = 1 << 53
    out = json.loads(canonical_json({"a": small, "b": big, "c": -big}))
    assert out["a"] == small
    assert out["b"] == str(big) and out["c"] == str(-big)


def test_canonical_json_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2, 3], "c": {"y": 0.5, "x": None}})
    b = canonical_json({"c": {"x": None, "y": 0.5}, "a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_canonical_json_refuses_numpy_scalars():
    with pytest.raises(TypeError):
        canonical_json({"x": np.int64(1)})


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def test_streams_reproducible_and_disjoint():
    def draw(seed, counter):
        return sampling.Streams(seed, [counter]).integers(0, 1 << 30, 4).tolist()
    a1, a2 = draw(42, (3, 10, 1)), draw(42, (3, 10, 1))
    assert a1 == a2
    assert a1 != draw(42, (4, 10, 1))
    assert a1 != draw(43, (3, 10, 1))


@pytest.mark.parametrize("index", [2 ** 53 + 1, 2 ** 63, 2 ** 64 - 1])
def test_stream_takes_counter_words_past_2_63_exactly(index):
    # numpy would read such a word in a list counter through float64.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, size, tag in [(3, 5, 2), (0, 28, harness.TAG_POINTS)]:
            drawn = sample_indices(stream(seed, index, size, tag), 81, size).tolist()
            assert drawn == sampling.sample_rows(seed, 81, [(index, size, tag)], [size])[0]


def _numpy_choice(seed, universe, counter, size):
    return sample_indices(stream(seed, *counter), universe, size).tolist()


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("universe,sizes", [
    (2, [0, 1, 2]),                       # Floyd's algorithm
    (9, list(range(10))),
    (81, [1, 28, 45, 60, 80, 81]),
    (4096, [1, 81, 513, 4095]),
    (2 ** 18, [1, 20, 24, 5242, 5243]),   # 5243 > 2^18 // 50: the tail shuffle
    (20000, [401, 1000, 19999, 20000]),   # the tail shuffle, and a whole universe
])
def test_sample_rows_match_numpy_choice(seed, universe, sizes):
    jobs = [((i, size, tag), size) for size in sizes for i, tag in ((0, 1), (7, 2))]
    # Word 0 of the counter carries into word 1, and all three words carry.
    jobs += [((2 ** 64 - 1, sizes[-1], 2), sizes[-1]), ((2 ** 64 - 1,) * 3, sizes[-1])]
    counters, sizes = zip(*jobs)
    rows = sampling.sample_rows(seed, universe, counters, sizes)
    assert rows == [_numpy_choice(seed, universe, c, k) for c, k in jobs]


def test_sample_rows_match_numpy_through_rejections(monkeypatch):
    # At 2^20 a draw rejects an output about once in 4000 steps, and one of
    # these jobs rejects more outputs than its spare block holds, so the
    # draws are made again with more spare blocks.
    spares = []

    def spy(*args, spare=1):
        spares.append(spare)
        return bounded(*args, spare=spare)
    bounded = sampling._bounded_draws
    monkeypatch.setattr(sampling, "_bounded_draws", spy)
    counters = [(i, 50000, 2) for i in range(3)]
    rows = sampling.sample_rows(12345, 2 ** 20, counters, [50000] * 3)
    assert spares == [1, 8]
    assert rows == [_numpy_choice(12345, 2 ** 20, c, 50000) for c in counters]


def test_sample_rows_refuses_what_numpy_choice_would_draw_otherwise():
    with pytest.raises(ValueError):
        sampling.sample_rows(0, 2 ** 32 + 1, [(0, 1, 1)], [1])
    with pytest.raises(ValueError):
        sampling.sample_rows(0, 9, [(0, 10, 1)], [10])


def _numpy_bilinear_draws(seed, counter, q, sets):
    """numpy's draws of the bilinear check on one stream: integers(1, q),
    then a choice of that size, `sets` times."""
    rng = stream(seed, *counter)
    return [sample_indices(rng, q, int(rng.integers(1, q))).tolist() for _ in range(sets)]


@pytest.mark.parametrize("q", [2, 3, 27, 101, 4096, 12000, 65536])
def test_streams_match_numpy_integers_between_choices(q):
    # At q = 2 the integers take no output; past q = 10,000 most choices
    # take the tail-shuffle branch, the others shuffle the set after
    # Floyd's algorithm.  Word 0 of a counter carries into word 1, and all
    # three words carry.
    counters = [(0, 0, 3), (5, 0, 3), (2 ** 63, 0, 3), (2 ** 64 - 1, 0, 3), (2 ** 64 - 1,) * 3]
    for seed in (0, 2 ** 64 - 1):
        streams = sampling.Streams(seed, counters)
        drawn = [streams.choice(q, streams.integers(1, q)[:, 0]) for _ in range(4)]
        assert [list(rows) for rows in zip(*drawn)] == [
            _numpy_bilinear_draws(seed, c, q, 4) for c in counters]


def test_streams_match_numpy_after_a_rejection_retry(monkeypatch):
    # The tail-shuffle draws of test_sample_rows_match_numpy_through_rejections,
    # which reject past the spare block, and later draws on the same streams.
    spares = []

    def spy(*args, spare=1):
        spares.append(spare)
        return bounded(*args, spare=spare)
    bounded = sampling._bounded_draws
    monkeypatch.setattr(sampling, "_bounded_draws", spy)
    counters = [(i, 50000, 2) for i in range(3)]
    streams = sampling.Streams(12345, counters)
    rows = streams.choice(2 ** 20, [50000] * 3)
    after = streams.integers(0, 1 << 32, 3).tolist(), streams.choice(81, [40] * 3)
    assert spares[:2] == [1, 8]
    for k, counter in enumerate(counters):
        rng = stream(12345, *counter)
        assert rows[k] == sample_indices(rng, 2 ** 20, 50000).tolist()
        assert after[0][k] == rng.integers(0, 1 << 32, 3).tolist()
        assert after[1][k] == sample_indices(rng, 81, 40).tolist()


def _tasks_of(batch):
    """A `_campaign` worker whose result per task is the task itself."""
    return [[task] for task in batch[5]]


@pytest.mark.parametrize("spec,tag,chunk", [
    (ExperimentSpec(p=3, n=2, d=2, sizes=(28, 60), samples=5), harness.TAG_POINTS, 64),
    (ExperimentSpec(p=101, d=2, sizes=(33, 40), samples=40), harness.TAG_COVER, 256),
    (ExperimentSpec(p=2, n=12, d=2, sizes=(513, 516), samples=5), harness.TAG_COVER, 256),
])
def test_campaign_draws_match_the_per_stream_draws(spec, tag, chunk, monkeypatch):
    # The rows of every task of the geometry-q9 and cover-sample campaigns,
    # drawn for the whole batch in one sample_rows call, then in one call
    # per task under a cap of one value, against one numpy stream per set.
    universe = spec.p ** (spec.n * (spec.d if tag == harness.TAG_POINTS else 1))
    totals = dict.fromkeys(range(spec.sizes[0], spec.sizes[1] + 1), spec.samples)
    tasks = harness._campaign(_tasks_of, spec, totals, chunk)
    for cap, seed in itertools.product((harness.DRAW_CAP, 1), range(20)):
        monkeypatch.setattr(harness, "DRAW_CAP", cap)
        drawn = list(harness._draw("sample", universe, tasks, seed, tag))
        assert len(drawn) == len(tasks)
        for segments, rows_of in zip(tasks, drawn):
            assert [rows.tolist() for rows in rows_of] == [
                [sample_indices(stream(seed, i, size, tag), universe, size).tolist()
                 for i in range(lo, hi)] for size, lo, hi in segments]


@pytest.mark.parametrize("p,n,d", [(2, 2, 2), (5, 1, 3), (3, 2, 2)])
def test_structured_random_points_match_the_numpy_stream(p, n, d):
    field = get_field(p, n)
    q = field.q
    line = set(PointSet.line(field, d, 1).flat_indices().tolist())
    for seed in range(20):
        roster = dict(structured_point_sets(field, d, seed))
        extra = sample_indices(stream(seed, 0, 0, harness.TAG_STRUCTURED), q ** d,
                               min(q ** d, max(2, q // 2)))
        assert roster["line_plus_random"].flat_indices().tolist() == sorted(
            line | set(extra.tolist()))


def test_sampling_commands_leave_numpy_random_unloaded():
    # Every roster spec, `selftest` and the bilinear check included, in one
    # fresh process: the reports keep their recorded digests, and
    # numpy.random is never loaded.
    entries = json.loads((Path(__file__).parent / "report_digests.json").read_text())
    code = """
import contextlib, hashlib, io, json, os, sys, tempfile
import fqcover.cli as cli
out = []
with tempfile.TemporaryDirectory() as tmp:
    for argv, csv in json.loads(sys.argv[1]):
        path = os.path.join(tmp, "profile.csv")
        report = io.StringIO()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + (["--csv", path] if csv else []))
        digest = lambda data: hashlib.sha256(data).hexdigest()
        out.append([code, digest(report.getvalue().encode()),
                    digest(open(path, "rb").read()) if csv else None])
print(json.dumps([out, "numpy.random" in sys.modules]))
"""
    res = subprocess.run([sys.executable, "-c", code,
                          json.dumps([[e["argv"], "csv" in e] for e in entries])],
                         capture_output=True, text=True, timeout=120, env=src_env())
    assert res.returncode == 0, res.stderr
    results, loaded = json.loads(res.stdout)
    assert len(entries) >= 10 and not loaded
    assert results == [[e["exit_code"], e["report"], e.get("csv")] for e in entries]


# ---------------------------------------------------------------------------
# structured rosters
# ---------------------------------------------------------------------------

def test_structured_scalar_sets_gf9_includes_subfield():
    field = get_field(3, 2)
    names = dict(structured_scalar_sets(field))
    assert "subfield_3^1" in names
    assert names["subfield_3^1"].flat_indices().tolist() == [0, 1, 2]


def test_structured_point_sets_shapes():
    field = get_field(5, 1)
    sets = dict(structured_point_sets(field, 2, seed=0))
    assert sets["line_1"].count == 5
    assert sets["hyperplane_1"].count == 5
    assert "grid_smallrange" in sets and "subgroup_grid_2" in sets
    assert sets["punctured_space"].count == 24


# ---------------------------------------------------------------------------
# commands (library level)
# ---------------------------------------------------------------------------

def test_run_selftest_passes():
    report = run_selftest(ExperimentSpec(p=2, seed=0))
    assert report.status == "ok" and report.exit_code == 0
    assert report.tallies["checked"] == report.tallies["passed"]
    rosters = {(f["p"], f["n"]) for f in report.extras["roster"]}
    assert (2, 2) in rosters and (5, 2) in rosters  # non-prime fields included


def test_run_cover_exhaustive_q5():
    report = run_cover_exhaustive(ExperimentSpec(p=5, d=2, mode="exhaustive"))
    assert report.status == "ok"
    assert report.tallies["4"]["checked"] == 5
    assert report.tallies["5"]["checked"] == 1
    assert report.extras["budget"] == 6
    assert report.extras["threshold_min_size"] == 4


def test_run_selftest_reports_a_corrupted_field(monkeypatch):
    bad = make_field(5, 1)
    bad.trace_table = bad.trace_table.copy()
    bad.trace_table[1] = 0
    monkeypatch.setattr(selftest, "get_field",
                        lambda p, n: bad if (p, n) == (5, 1) else get_field(p, n))
    report = run_selftest(ExperimentSpec(p=2, seed=0))
    assert report.status == "counterexample" and report.exit_code == 2
    assert {"q": 5, "check": "trace_surjective"} in report.counterexamples
    assert {c["q"] for c in report.counterexamples} == {5}


def test_cover_sample_refuses_a_block_verdict_the_oracle_contradicts(monkeypatch):
    monkeypatch.setattr(scalar, "covers_units_block",
                        lambda field, subsets, d: np.zeros(len(subsets), dtype=bool))
    with pytest.raises(RuntimeError, match="disagree"):
        run_cover_sample(ExperimentSpec(p=17, d=2, sizes=(9, 9), samples=64))


def test_cover_exhaustive_refuses_representatives_that_are_not_whole_orbits(monkeypatch):
    # One representative of size 5 with 5 units stands for 6/5 sets of F_7.
    def levels(universe, decide, lo, top):
        yield 5, 1, np.array([[1, 2, 3, 4]])
    monkeypatch.setattr(scalar, "levels", levels)
    with pytest.raises(RuntimeError, match="not whole orbits"):
        run_cover_exhaustive(ExperimentSpec(p=7, d=2, mode="exhaustive"))


def test_run_cover_exhaustive_q7_29_subsets():
    report = run_cover_exhaustive(ExperimentSpec(p=7, d=2, mode="exhaustive"))
    total = sum(t["checked"] for t in report.tallies.values())
    assert total == 29
    assert report.status == "ok"


@pytest.mark.parametrize("p,n", [(13, 1), (2, 4)])
def test_run_cover_exhaustive_identical_across_workers(p, n):
    reports = [canonical_json(run_cover_exhaustive(
        ExperimentSpec(p=p, n=n, d=2, mode="exhaustive", workers=w)).to_dict())
        for w in (1, 2)]
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    q = p ** n
    assert report["status"] == "ok"
    assert {int(s): t["checked"] for s, t in report["tallies"].items()} == {
        s: math.comb(q, s) for s in range(report["extras"]["threshold_min_size"], q + 1)}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1)])
def test_cover_exhaustive_scan_matches_the_per_set_oracle(p, n, d):
    # Every size below the threshold fits the budget here, so the scan's
    # minimum is the least s such that every subset of every size from s
    # up to the threshold covers, by the per-set oracle.
    field = get_field(p, n)
    q = field.q
    assert 2 ** q <= harness.EXHAUSTIVE_BUDGET
    expect = s_min = min(s for s in range(1, q + 1) if s ** (2 * d) > q ** (d + 1))
    for s in range(s_min - 1, 0, -1):
        if not all(cover_verdict(PointSet.from_flat(field, 1, a), d)["covers_units"]
                   for a in itertools.combinations(range(q), s)):
            break
        expect = s
    for workers in (1, 2):
        extras = run_cover_exhaustive(ExperimentSpec(p=p, n=n, d=d, mode="exhaustive",
                                                     workers=workers)).extras
        assert extras["threshold_min_size"] == s_min
        assert extras["empirical_all_cover_min_size"] == expect
        assert extras["empirical_scan_floor"] == expect


@pytest.mark.parametrize("p,d,verdicts", [(17, 2, 1009), (13, 3, 108), (13, 1, 1289),
                                           (43, 2, 715168)])
def test_cover_exhaustive_verdict_count_is_pinned(p, d, verdicts):
    # The search decides {1} and the children of the non-covering sets
    # holding 1 at every size below the threshold and above; 1,009 is the
    # README's figure for --p 17 --d 2.  At d = 1 no size meets the
    # threshold, so sizes are given: at q = 13 the search jumps to size 9
    # in colex order, and at q = 43 the levels of sizes 5 and 6 take up to
    # about 290 verdict blocks each.
    sizes = {(13, 1): (9, 13), (43, 2): (5, 6)}.get((p, d))
    report = run_cover_exhaustive(ExperimentSpec(p=p, d=d, mode="exhaustive", sizes=sizes))
    assert report.stats["verdicts"] == verdicts


def test_empirical_minimum_does_not_depend_on_the_budget(monkeypatch):
    # The threshold sizes 7..13 of F_13 hold 4,096 subsets.  With nothing
    # left of the budget for the smaller sizes, the search still decides
    # them: every subset of 5..13 covers at d = 2, and some 4-set does not.
    expect = run_cover_exhaustive(ExperimentSpec(p=13, d=2, mode="exhaustive")).extras
    monkeypatch.setattr(harness, "EXHAUSTIVE_BUDGET", 4096)
    extras = run_cover_exhaustive(ExperimentSpec(p=13, d=2, mode="exhaustive")).extras
    assert extras == expect
    assert extras["budget"] == 4096 and extras["threshold_min_size"] == 7
    assert extras["empirical_all_cover_min_size"] == extras["empirical_scan_floor"] == 5


def test_run_cover_exhaustive_counterexamples_come_from_the_oracle(monkeypatch):
    # With the threshold pretended down to size 1, sub-threshold sets that
    # miss a unit are reported as counterexamples, with the oracle's lists.
    monkeypatch.setattr(scalar, "min_threshold_size", lambda q, d: 1)
    calls = {"block": 0, "per_set": 0}
    block, per_set = scalar.covers_units_block, scalar.cover_verdict

    def counted_block(*args):
        calls["block"] += 1
        return block(*args)

    def counted_per_set(*args):
        calls["per_set"] += 1
        return per_set(*args)

    monkeypatch.setattr(scalar, "covers_units_block", counted_block)
    monkeypatch.setattr(scalar, "cover_verdict", counted_per_set)
    field = get_field(7, 1)
    report = run_cover_exhaustive(ExperimentSpec(p=7, d=2, mode="exhaustive", sizes=(1, 7)))
    expect = []
    for k in range(1, 8):
        for subset in _colex_reference(7, k):
            verdict = cover_verdict(PointSet.from_flat(field, 1, subset), 2)
            if not verdict["covers_units"]:
                expect.append({"size": k, "subset": list(subset),
                               "missing": verdict["missing"]})
    # Both verdict paths are reached: the block kernel decides the search's
    # larger levels, the per-set oracle the lone {1}.  Every counterexample
    # takes one more oracle call.
    assert calls["block"] > 0
    assert calls["per_set"] > len(expect)
    assert report.counterexamples == sorted(expect, key=lambda c: (c["size"], c["subset"]))
    assert report.status == "counterexample"
    for k in range(1, 8):
        assert report.tallies[str(k)]["covered"] == math.comb(7, k) - sum(
            c["size"] == k for c in expect)


def _check_search(p, n, d, monkeypatch, lo=0):
    """Run cover-exhaustive on every size lo..q and check it against brute
    force with `cover_verdict`.  The sets given a verdict (each holding 1,
    in blocks of at most SUBSET_CHUNK rows) are, at size k, exactly the
    children of the non-covering representatives of size k - 1 when those
    were decided.  Below the least size asked for, a level may be left out,
    and then every representative of that size is decided instead, within
    twice their number over the sizes asked for.  The tallies and
    counterexamples are those of every subset."""
    field = get_field(p, n)
    q = field.q
    verdicts = {a: cover_verdict(PointSet.from_flat(field, 1, a), d)
                for k in range(q + 1) for a in itertools.combinations(range(q), k)}
    rows = {k: [] for k in range(q + 1)}
    covers = scalar._covers

    def counted(field, d, subsets):
        assert 0 < len(subsets) <= harness.SUBSET_CHUNK
        assert (subsets == 1).any(axis=1).all()
        rows[subsets.shape[1]] += (tuple(sorted(a)) for a in subsets.tolist())
        return covers(field, d, subsets)

    monkeypatch.setattr(scalar, "_covers", counted)
    report = run_cover_exhaustive(ExperimentSpec(p=p, n=n, d=d, mode="exhaustive",
                                                 sizes=(lo, q)))
    reps = {k: [a for a in verdicts if len(a) == k and 1 in a] for k in range(q + 1)}
    children = {k: [] for k in range(q + 2)}
    children[1] = [(1,)]
    for a in (a for a, v in verdicts.items() if 1 in a and not v["covers_units"]):
        top = max((x for x in a if x != 1), default=-1)
        children[len(a) + 1] += [tuple(sorted(a + (x,))) for x in range(top + 1, q) if x != 1]
    first = max(lo, 1)
    for k in range(1, q + 1):
        if k == first and k > 1 and not rows[k - 1]:
            expect = reps[k]
        elif k == 1 or rows[k - 1]:
            expect = children[k] if k >= first or rows[k] else []
        else:
            expect = []
        assert sorted(rows[k]) == sorted(expect), k
    assert sum(map(len, rows.values())) <= 2 * sum(len(reps[k]) for k in range(first, q + 1))
    s_min = scalar.min_threshold_size(q, d)
    assert report.tallies == {str(k): {
        "checked": math.comb(q, k),
        "covered": sum(v["covers_units"] for a, v in verdicts.items() if len(a) == k),
        "threshold": k >= s_min} for k in range(lo, q + 1)}
    assert report.counterexamples == [
        {"size": len(a), "subset": list(a), "missing": v["missing"]}
        for a, v in sorted(verdicts.items(), key=lambda av: (len(av[0]), av[0]))
        if len(a) >= max(s_min, lo, 1) and not v["covers_units"]]
    return rows, report


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_cover_exhaustive_tallies_from_orbit_representatives(p, n, d, monkeypatch):
    rows, _ = _check_search(p, n, d, monkeypatch)
    assert rows[1] == [(1,)]


@pytest.mark.parametrize("p,threshold,lo", [(11, None, 0), (13, None, 0), (11, 1, 0),
                                            (13, None, 9)])
def test_cover_exhaustive_search_splits_levels_across_blocks(p, threshold, lo, monkeypatch):
    # At d = 1 the sets that miss a unit are many (every subset of the
    # squares and 0 among them), so with blocks of 7 rows most levels take
    # several verdict calls.  With the threshold at 1 every one of them is
    # a counterexample, expanded from its representative.  From size 9 up,
    # searching all of sizes 1..8 would decide more sets than the 794
    # representatives of sizes 9..13: the search stops after size 5, and
    # every representative of size 9 is decided.
    monkeypatch.setattr(harness, "SUBSET_CHUNK", 7)
    if threshold:
        monkeypatch.setattr(scalar, "min_threshold_size", lambda q, d: threshold)
    rows, report = _check_search(p, 1, 1, monkeypatch, lo)
    assert max(len(r) for r in rows.values()) > 20 * 7
    assert report.status == ("counterexample" if threshold else "ok")
    if lo:
        assert rows[lo - 1] == [] and len(rows[lo]) == math.comb(p - 1, lo - 1)


def _flagged(report) -> dict:
    """The report as serialized, after checking it is flagged."""
    out = json.loads(canonical_json(report.to_dict()))
    assert out["status"] == "counterexample" and out["exit_code"] == 2
    assert report.exit_code == harness.EXIT_COUNTEREXAMPLE
    return out


def test_run_cover_sample_counterexamples_from_samples_and_structured_sets(monkeypatch):
    # Every structured set counts as above the threshold, and so does every
    # sampled one.  Sampled entries carry their sample index; at one size,
    # structured entries come first.
    monkeypatch.setattr(covering, "scalar_cover_threshold", lambda a, d: True)
    monkeypatch.setattr(scalar, "min_threshold_size", lambda q, d: 1)
    field = get_field(3, 2)
    report = run_cover_sample(ExperimentSpec(p=3, n=2, d=2, mode="structured",
                                             sizes=(1, 9), samples=3, seed=1))
    structured, sampled = [], []
    for name, a in structured_scalar_sets(field):
        verdict = cover_verdict(a, 2)
        if not verdict["covers_units"]:
            structured.append({"size": a.count, "structured": name,
                               "missing": verdict["missing"]})
    for k in range(1, 10):
        for i in range(3):
            subset = sample_indices(stream(1, i, k, harness.TAG_COVER), 9, k).tolist()
            verdict = cover_verdict(PointSet.from_flat(field, 1, subset), 2)
            if not verdict["covers_units"]:
                sampled.append({"size": k, "subset": subset,
                                "missing": verdict["missing"], "sample_index": i})
    assert any(c["structured"] == "subfield_3^1" for c in structured)
    assert report.counterexamples == sorted(
        structured + sampled, key=lambda c: (c["size"], c.get("sample_index", -1), str(c)))
    keys = {frozenset(c) for c in _flagged(report)["counterexamples"]}
    assert keys == {frozenset({"size", "structured", "missing"}),
                    frozenset({"size", "subset", "missing", "sample_index"})}


def test_run_sharpness_counterexamples(monkeypatch):
    # The subfield stays closed under its six closure sumsets and is
    # reported when its cover sumset (the seventh call) is made the whole
    # field; every non-covering family is reported when it is taken as
    # above the threshold.
    real, calls = scalar.sumset_of_products, itertools.count()
    monkeypatch.setattr(scalar, "sumset_of_products",
                        lambda a, d: real(a, d) if next(calls) < 6 else PointSet.full(a.field, 1))
    monkeypatch.setattr(covering, "scalar_cover_threshold", lambda a, d: True)
    field = get_field(3, 2)
    report = run_sharpness(ExperimentSpec(p=3, n=2, d=2, mode="structured"))
    expect = [{"structured": "sqrt_subfield", "size": 3}] + [
        {"structured": name, "size": a.count} for name, a in structured_scalar_sets(field)
        if not cover_verdict(a, 2)["covers_units"]]
    assert len(expect) > 1 and report.counterexamples == expect
    assert report.extras["sqrt_subfield"]["closed_up_to_d6"]
    assert report.extras["sqrt_subfield"]["covers_units"]
    assert next(calls) == 7
    assert _flagged(report)["counterexamples"] == expect


def _force_geometry_failures(monkeypatch):
    """Patch the read-outs of `geometry` so that each of its five checks
    fails on some sets, by a rule on the set's size: the cover check runs on
    the sets of even drawn size, whatever the threshold; the remainder bound
    is 0 on cores of size 2 mod 5; the hyperplane sums of cores of size
    divisible by 3 are one too high; the second moment fails on cores of
    odd size, and the key lower bound on cores of size divisible by 4."""
    sides, sums = geometry.remainder_sides, geometry.hyperplane_sum
    monkeypatch.setattr(geometry, "point_cover_threshold", lambda e: e.sizes % 2 == 0)
    monkeypatch.setattr(geometry, "remainder_sides", lambda counts, size, q, d: (
        lambda r, bound: (r, bound * (size % 5 != 2)))(*sides(counts, size, q, d)))
    monkeypatch.setattr(geometry, "hyperplane_sum",
                        lambda e: sums(e) + (e.sizes % 3 == 0)[:, None])
    monkeypatch.setattr(geometry, "second_moment_sides",
                        lambda counts, size, max_line, q, d: (size % 2, 0 * size))
    monkeypatch.setattr(geometry, "dot_set_lower_bound_sides",
                        lambda dots, max_line, size, q, d: (size % 4, 1 + 0 * size))


def run_geometry_forced(spec):
    """`run_geometry` under `_force_geometry_failures`."""
    with pytest.MonkeyPatch.context() as m:
        _force_geometry_failures(m)
        return run_geometry(spec)


def _forced_geometry_outcomes(field, d, drawn, label):
    """(report entries, sharpness fraction, whether cover is checked) of one
    set under `_force_geometry_failures`, counted on its own core."""
    q = field.q
    core = PointSet.from_flat(field, d, drawn).strip_origin()
    n = core.count
    r = [q * c - n * n for c in nu_bruteforce(core).tolist()]
    worst = max(abs(v) for v in r[1:])
    missing = missing_units(dot_product_set(core).bits)
    checked = len(drawn) % 2 == 0
    failed = {
        "cover": checked and bool(missing),
        "remainder": worst > math.isqrt(n * n * q ** (d + 1)) * (n % 5 != 2),
        "identities": n % 3 == 0,
        "second_moment": n % 2 == 1,
        "keylowerbound": n % 4 == 0,
    }
    entries = [{"check": c, "case": label, **({"missing": missing[:32]} if c == "cover" else {})}
               for c in geometry.POINT_CHECKS if failed[c]]
    return entries, (worst * worst, n * n * q ** (d + 1)), checked


def test_run_geometry_counterexamples():
    # Sampled, enumerated and structured cases each fail every check on some
    # sets and pass it on others.  Sets of 2 points in F_37^2 miss at least
    # 33 of the 36 units, so their entries are cut at 32.
    for spec in [ExperimentSpec(p=5, d=2, mode="sample", sizes=(2, 10), samples=2, seed=1),
                 ExperimentSpec(p=3, d=2, mode="exhaustive", sizes=(1, 3)),
                 ExperimentSpec(p=37, d=2, mode="structured", sizes=(2, 3), samples=2, seed=4)]:
        field = get_field(spec.p, spec.n)
        universe = field.q ** spec.d
        cases = []
        for k in range(spec.sizes[0], spec.sizes[1] + 1):
            if spec.mode == "exhaustive":
                cases += [(f"size{k}_colex{tuple(row)}", row) for row in
                          colex_unrank(universe, k, 0, math.comb(universe, k)).tolist()]
            else:
                cases += [(f"size{k}#{i}", sample_indices(
                    stream(spec.seed, i, k, harness.TAG_POINTS), universe, k).tolist())
                    for i in range(spec.samples)]
        if spec.mode == "structured":
            cases += [(name, e.flat_indices().tolist())
                      for name, e in structured_point_sets(field, spec.d, spec.seed)]
        expect, sharpest, checked = [], (0, 1, None), 0
        for label, drawn in cases:
            entries, (num, den), met = _forced_geometry_outcomes(field, spec.d, drawn, label)
            expect += entries
            checked += met
            if den and num * sharpest[1] > sharpest[0] * den:  # the first of the sharpest
                sharpest = (num, den, label)
        failed = {c: sum(e["check"] == c for e in expect) for c in geometry.POINT_CHECKS}
        assert 0 < min(failed.values()) and max(failed.values()) < len(cases)

        report = run_geometry_forced(spec)
        # Cases sort as strings: "size10#0" before "size2#0".
        assert report.counterexamples == sorted(expect, key=lambda c: (c["check"], c["case"]))
        assert report.tallies == {
            c: {"checked": checked if c == "cover" else len(cases),
                "passed": (checked if c == "cover" else len(cases)) - failed[c]}
            for c in geometry.POINT_CHECKS}
        assert report.extras["sharpness"] == {
            "max_ratio": sharpest[0] / sharpest[1], "numerator": sharpest[0],
            "denominator": sharpest[1], "case": sharpest[2]}
        assert _flagged(report)["counterexamples"] == report.counterexamples
    assert max(len(e.get("missing", ())) for e in expect) == 32


def test_run_cover_exhaustive_small_sets_in_a_large_field_stay_per_set():
    field = get_field(2, 12)
    assert dense_block_rows(field, 1, 2, harness.SUBSET_CHUNK) == 0
    report = run_cover_exhaustive(ExperimentSpec(p=2, n=12, d=2, mode="exhaustive",
                                                 sizes=(1, 1)))
    assert report.tallies == {"1": {"checked": 4096, "covered": 0, "threshold": False}}
    assert report.status == "ok"
    assert report.extras == {"threshold_min_size": 513, "budget": 4096}


@pytest.mark.parametrize("run", [run_cover_exhaustive, run_cover_sample])
def test_cover_runs_refuse_a_size_range_outside_the_field(run):
    with pytest.raises(BadSpecError, match=r"1\.\.5"):
        run(ExperimentSpec(p=5, d=2, sizes=(7, 9)))
    with pytest.raises(BadSpecError):
        run(ExperimentSpec(p=5, d=2, sizes=(0, 0)))


def test_run_cover_sample_deterministic_in_process():
    spec = ExperimentSpec(p=13, d=2, mode="sample", samples=20, seed=42)
    r1 = canonical_json(run_cover_sample(spec).to_dict())
    r2 = canonical_json(run_cover_sample(spec).to_dict())
    assert r1 == r2


def test_run_cover_sample_structured_mode_gf9():
    spec = ExperimentSpec(p=3, n=2, d=2, mode="structured", samples=5, seed=1)
    report = run_cover_sample(spec)
    names = [s["name"] for s in report.extras["structured"]]
    assert "subfield_3^1" in names
    assert report.status == "ok"


def test_run_cover_sample_bilinear_campaign():
    spec = ExperimentSpec(p=5, d=2, mode="sample", samples=10, seed=3,
                          checks=("bilinear",))
    report = run_cover_sample(spec)
    assert report.extras["bilinear"]["samples"] == 10


def test_run_sharpness_gf9():
    report = run_sharpness(ExperimentSpec(p=3, n=2, d=2, mode="structured"))
    sub = report.extras["sqrt_subfield"]
    assert sub["closed_up_to_d6"] and not sub["covers_units"]
    assert sub["size"] == 3
    assert report.status == "ok"


def test_run_sharpness_prime_field_skips_subfield():
    report = run_sharpness(ExperimentSpec(p=7, d=2, mode="structured"))
    assert isinstance(report.extras["sqrt_subfield"], str)


def test_divisors_match_the_scan():
    for m in range(1, 2001):
        assert harness._divisors(m) == [d for d in range(1, m + 1) if m % d == 0]


def test_run_geometry_exhaustive_q3():
    spec = ExperimentSpec(p=3, d=2, mode="exhaustive", sizes=(6, 9))
    report = run_geometry(spec)
    assert report.status == "ok"
    assert report.tallies["cover"]["checked"] == 130
    assert report.tallies["remainder"]["passed"] == 130


def test_run_geometry_sample_small():
    spec = ExperimentSpec(p=5, d=2, mode="structured", sizes=(2, 5), samples=4,
                          seed=9, checks=("remainder", "second_moment"))
    report = run_geometry(spec)
    assert report.status == "ok"
    assert set(report.tallies) == {"remainder", "second_moment"}
    assert report.extras["sharpness"]["max_ratio"] > 0


def test_geometry_check_counts_nu_and_lines_once_per_set(monkeypatch):
    calls = {"nu": 0, "line_counts_all": 0}
    for name in calls:
        real = getattr(incidence, name)

        def counted(e, real=real, name=name):
            calls[name] += 1
            return real(e)
        monkeypatch.setattr(incidence, name, counted)
    field = get_field(3, 2)
    for i in range(3):
        e = PointSet.from_flat(field, 2, stream(5, i, 40, 0).choice(81, 40, replace=False))
        out = geometry._geometry_checks(field, 2, PointSet(field, 2, e.bits[None]),
                                        geometry.POINT_CHECKS)
        assert all(np.shape(out[c]) == (2, 1) for c in geometry.POINT_CHECKS)
        assert calls == {"nu": i + 1, "line_counts_all": i + 1}


def test_geometry_max_line_is_that_of_each_core(monkeypatch):
    # With the origin taken off, entry 0 of a row's line counts holds q - 1
    # for a set with the origin; M is the largest count over the lines only.
    seen = {}
    for name, pos in (("second_moment_sides", 2), ("dot_set_lower_bound_sides", 1)):
        def record(*args, real=getattr(geometry, name), name=name, pos=pos):
            seen[name] = args[pos].tolist()
            return real(*args)
        monkeypatch.setattr(geometry, name, record)
    field, q, k = get_field(5, 1), 5, 6
    rows = [sorted(([0] if i % 2 == 0 else []) + stream(3, i, k, 0).choice(
        range(1, q ** 2), k - (i % 2 == 0), replace=False).tolist()) for i in range(8)]
    geometry._geometry_checks(field, 2, PointSet.from_flat(field, 2, rows),
                              geometry.POINT_CHECKS)
    expect = [int(line_counts_all(PointSet.from_flat(field, 2, r).strip_origin())[1:].max())
              for r in rows]
    assert max(expect[::2]) < q - 1
    assert seen == {"second_moment_sides": expect, "dot_set_lower_bound_sides": expect}


@pytest.mark.parametrize("mode,sizes", [("exhaustive", (6, 7)), ("sample", (3, 6)),
                                        ("structured", (2, 3))])
def test_run_geometry_csv_is_the_profile_of_the_sharpest_case(tmp_path, mode, sizes):
    path = tmp_path / "nu.csv"
    spec = ExperimentSpec(p=3, d=2, mode=mode, sizes=sizes, samples=3, seed=2,
                          csv=str(path))
    case = run_geometry(spec).extras["sharpness"]["case"]
    field = get_field(3, 1)
    if "_colex" in case:
        e = PointSet.from_flat(field, 2, list(ast.literal_eval(case.split("_colex")[1])))
    elif "#" in case:
        size, index = map(int, case[4:].split("#"))
        e = PointSet.from_flat(field, 2, sample_indices(
            stream(2, index, size, harness.TAG_POINTS), 9, size))
    else:
        e = dict(structured_point_sets(field, 2, 2))[case]
    core = e.strip_origin()
    rows = [f"{t},{c},{3 * c - core.count ** 2}\r\n"
            for t, c in enumerate(nu_bruteforce(core).tolist())]
    assert path.read_bytes() == ("t_index,nu,r_numerator\r\n" + "".join(rows)).encode()


def test_run_d_of_eps():
    report = run_d_of_eps(Fraction(1, 4))
    assert report.extras == {"d_cover": 2, "d_proportion": 2}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_d_of_eps():
    res = run_cli("d-of-eps", "1/10")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["extras"] == {"d_cover": 5, "d_proportion": 3}


def test_cli_bad_epsilon_exit_3():
    assert run_cli("d-of-eps", "3/4").returncode == 3
    assert run_cli("d-of-eps", "zero").returncode == 3


def test_cli_bad_field_exit_3():
    assert run_cli("cover-exhaustive", "--p", "4", "--n", "1").returncode == 3


@pytest.mark.parametrize("option", [("--samples", "-1"), ("--workers", "0")])
def test_cli_refuses_a_negative_sample_count_or_no_workers(capsys, option):
    assert cli.main(["cover-sample", "--p", "7", *option]) == 3
    assert "bad spec" in capsys.readouterr().err


def test_cli_budget_exit_4():
    res = run_cli("cover-exhaustive", "--p", "101", "--n", "1", "--d", "2")
    assert res.returncode == 4
    assert "budget" in res.stderr


@pytest.mark.parametrize("args,code", [
    (("cover-exhaustive", "--p", "3", "--n", "100000000"), 3),
    (("sharpness", "--p", "3", "--n", "100000000"), 3),
    (("geometry", "--p", "2", "--n", "15000", "--d", "1"), 3),
    (("geometry", "--p", "3", "--d", "100000000"), 4),
    (("cover-exhaustive", "--p", "2305843009213693951"), 3),
    (("cover-exhaustive", "--p", "7", "--d", "100000000"), 4),
    (("cover-sample", "--p", "7", "--d", "100000000"), 4),
    (("sharpness", "--p", "3", "--n", "2", "--d", "100000000"), 4),
    (("geometry", "--p", "2", "--n", "21", "--d", "1"), 3),
])
def test_cli_refuses_a_huge_degree_or_dimension_at_once(args, code):
    """The bit length of a cap refuses n or d before p^n, q^d or the
    threshold power q^(2d) is taken; 2^15000 has more digits than Python
    prints.  A p over the field size cap (here 2^61 - 1) is refused before
    trial division tries it."""
    res = subprocess.run([sys.executable, "-m", "fqcover", *args],
                         capture_output=True, text=True, timeout=10, env=src_env())
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


@pytest.mark.parametrize("args,code", [
    (("--p", "2", "--n", "12"), 4),     # GF(4096): C(4096, s) subsets per size
    (("--p", "4"), 3),
    (("--p", "2", "--n", "0"), 3),
    (("--p", "2", "--n", "21"), 3),     # over the field size cap
])
def test_cover_exhaustive_refuses_before_building_the_field(monkeypatch, capsys, args, code):
    def build(*args, **kwargs):
        raise AssertionError("a field was built")
    monkeypatch.setattr(harness, "make_field", build)
    monkeypatch.setattr(harness, "_FIELD_CACHE", {})
    t0 = time.perf_counter()
    assert cli.main(["cover-exhaustive", *args]) == code
    # Summing C(4096, s) over every size up to 4096 took 1.6 s.
    assert time.perf_counter() - t0 < 1
    assert ("budget" in capsys.readouterr().err) == (code == 4)


def test_cli_cover_exhaustive_vacuous_size_range_exit_3():
    res = run_cli("cover-exhaustive", "--p", "5", "--n", "1", "--sizes", "7..9")
    assert res.returncode == 3
    assert "1..5" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ("geometry", "--p", "5", "--d", "2", "--sizes", "30..40"),
    ("geometry", "--p", "5", "--d", "2", "--samples", "0"),
    ("geometry", "--p", "5", "--d", "1", "--mode", "exhaustive"),
    ("cover-sample", "--p", "7", "--samples", "0"),
    ("geometry", "--p", "5", "--d", "2", "--sizes", "1..3", "--checks", "cover"),
    ("cover-exhaustive", "--p", "5", "--d", "1"),
    ("cover-sample", "--p", "5", "--d", "1"),
])
def test_cli_refuses_runs_that_check_nothing(args):
    res = run_cli(*args)
    assert res.returncode == 3, res.stderr
    assert "bad spec" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("args", [
    ("geometry", "--p", "3", "--d", "2", "--mode", "structured", "--samples", "0"),
    ("cover-sample", "--p", "7", "--structured", "--samples", "0"),
])
def test_cli_structured_roster_runs_without_samples(args):
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["status"] == "ok"
    assert report["extras"].get("structured") or any(
        t["checked"] for t in report["tallies"].values())


@pytest.mark.parametrize("extra,checked", [
    (("--structured",), "structured"),
    (("--checks", "bilinear", "--samples", "3"), "bilinear"),
])
def test_cover_sample_below_threshold_runs_when_it_checks_sets(extra, checked):
    res = run_cli("cover-sample", "--p", "5", "--d", "1", *extra)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["tallies"] == {} and report["extras"][checked]


@pytest.mark.parametrize("d", ["2", "1"])
def test_geometry_refuses_an_oversized_space_before_allocating(monkeypatch, capsys, d):
    def build(*args):
        raise AssertionError("a field was built")
    _patch_commands(monkeypatch, "get_field", build)
    tracemalloc.start()
    try:
        code = cli.main(["geometry", "--p", "2", "--n", "20", "--d", d])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert peak < 1 << 20
    # The needed size: q^d complex values at d = 2, the q x q matrix at both.
    assert f"{16 * 2 ** 40}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["sharpness"], ["cover-sample", "--structured"]])
def test_structured_roster_over_the_pair_budget_is_refused(capsys, command):
    # GF(2^16) puts powers_32767 and powers_65534 in the structured roster:
    # 6e9 products, refused before the first product set.
    harness.get_field(2, 16)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = cli.main(command + ["--p", "2", "--n", "16"])
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert elapsed < 1
    assert peak < 4 << 20
    assert f"{scalar.PAIR_BUDGET}" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["geometry", "--p", "5", "--d", "2", "--samples", "10000000000"],
    ["geometry", "--p", "5", "--d", "2", "--mode", "structured", "--sizes", "1..11",
     "--samples", "1000000"],
    ["cover-sample", "--p", "7", "--sizes", "1..7", "--samples", "2000000"],
    # 6e6 sampled sets fit the budget; the bilinear samples take the run
    # past it.
    ["cover-sample", "--p", "7", "--sizes", "1..1", "--samples", "6000000",
     "--checks", "bilinear"],
])
def test_sample_counts_over_the_budget_are_refused_before_the_field(monkeypatch, capsys,
                                                                    args):
    def refuse(*args):
        raise AssertionError("the run went on")
    _patch_commands(monkeypatch, "get_field", refuse)
    _patch_commands(monkeypatch, "_campaign", refuse)
    assert cli.main(args) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and f"{harness.EXHAUSTIVE_BUDGET}" in captured.err


def test_draw_budget_is_the_exhaustive_budget():
    assert harness.require_budget([harness.EXHAUSTIVE_BUDGET]) == harness.EXHAUSTIVE_BUDGET
    with pytest.raises(harness.BudgetExceededError, match="budget"):
        harness.require_budget([harness.EXHAUSTIVE_BUDGET + 1])


def test_cli_cover_sample_refuses_per_set_verdicts_over_the_pair_budget(capsys):
    # Three sampled 5000-sets of GF(2^18) take the per-set verdict, whose
    # sumset step would pair about 2.6e5 x 2.6e5 elements; refused before
    # the draw.
    t0 = time.perf_counter()
    code = cli.main(["cover-sample", "--p", "2", "--n", "18", "--d", "2",
                     "--sizes", "5000..5000", "--samples", "3"])
    assert code == 4 and time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert captured.out == "" and f"{scalar.PAIR_BUDGET}" in captured.err


def test_pair_budget_counts_the_segments_that_tasks_cut(monkeypatch, capsys):
    # 150 samples each of sizes 18 and 19 in GF(2^10) are packed as
    # [(18, 0, 150), (19, 0, 106)], [(19, 106, 150)].  150 and 106 rows take
    # the block kernel, but the 44-row segment goes per set, with up to
    # 44 * 130,682 pairs.
    field = get_field(2, 10)
    assert [dense_block_rows(field, k, 2, rows) for k, rows in ((18, 150), (19, 106))] != [0, 0]
    assert dense_block_rows(field, 19, 2, 44) == 0
    assert scalar._sampled_pairs(field, 2, range(18, 20), 150, 256) == 44 * 130_682

    def refuse(*args):
        raise AssertionError("the run went on")
    monkeypatch.setattr(scalar, "PAIR_BUDGET", 10 ** 6)
    _patch_commands(monkeypatch, "_campaign", refuse)
    assert cli.main(["cover-sample", "--p", "2", "--n", "10", "--d", "2",
                     "--sizes", "18..19", "--samples", "150"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "budget of 1000000" in captured.err


def test_bilinear_samples_over_the_pair_budget_are_refused_before_the_field(monkeypatch,
                                                                           capsys):
    # 8e6 drawn sets fit the draw budget, but each bilinear sample of
    # GF(2^12) may form 2 * 4095^2 products and 4096^2 sumset pairs.
    def refuse(*args):
        raise AssertionError("the run went on")
    _patch_commands(monkeypatch, "get_field", refuse)
    _patch_commands(monkeypatch, "_campaign", refuse)
    assert cli.main(["cover-sample", "--p", "2", "--n", "12", "--sizes", "1..1",
                     "--samples", "4000000", "--checks", "bilinear"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and f"{scalar.PAIR_BUDGET}" in captured.err


@pytest.mark.parametrize("q,d", [(7, 1), (7, 3), (13, 2), (7, 40), (4096, 2), (4096, 5),
                                 (2 ** 18, 3)])
def test_verdict_pairs_is_the_stated_bound(q, d):
    for k in (0, 1, 2, 3, 10, 64, 513, q):
        m = min(k * k, q)
        assert scalar._verdict_pairs(q, k, d) == k * k + m * sum(
            min(q, m ** j) for j in range(1, d))


def test_cover_exhaustive_refuses_no_threshold_size_before_the_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("the empirical scan ran")
    monkeypatch.setattr(scalar, "_covers", scan)
    with pytest.raises(BadSpecError, match="threshold"):
        run_cover_exhaustive(ExperimentSpec(p=5, d=1, mode="exhaustive"))


def test_cover_exhaustive_search_peak_memory():
    # d = 1 keeps most sets below the middle size from covering: the search
    # decides 106,064 sets of F_19, holding two levels at a time.
    harness.get_field(19, 1)
    tracemalloc.start()
    try:
        code = cli.main(["cover-exhaustive", "--p", "19", "--d", "1", "--sizes", "1..19"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 << 20


def test_cover_exhaustive_starts_no_pool(monkeypatch):
    def pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(scalar, "min_threshold_size", lambda q, d: 1)
    spec = ExperimentSpec(p=13, d=2, mode="exhaustive", sizes=(1, 13))
    single = canonical_json(run_cover_exhaustive(spec).to_dict())
    # `_campaign` imports the pool class where it starts a pool.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    spec.workers = 3
    assert canonical_json(run_cover_exhaustive(spec).to_dict()) == single
    assert '"status":"counterexample"' in single


def test_cli_import_loads_no_process_pool():
    # `_campaign` imports the pool where it starts one, so a run that starts
    # none does not pay for multiprocessing; nor does a run that draws
    # nothing load the sampler.  The command modules load with the CLI, so
    # that no run compiles one inside its timed part; `harness` loads none.
    commands = ("selftest", "scalar", "geometry")
    code = ("import sys, fqcover.harness\n"
            f"commands = {tuple(f'fqcover.{m}' for m in commands)}\n"
            "print([m for m in commands if m in sys.modules])\n"
            "import fqcover.cli\n"
            "print([m for m in commands if m not in sys.modules])\n"
            "print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing', 'fqcover.sampling')))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n[]\n[]\n"
    # The dependency goes one way: no import in `harness`, at module level
    # or inside a function, names a command module.
    tree = ast.parse(Path(harness.__file__).read_text())
    named = {f"{n.module or ''}.{a.name}".strip(".") for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) for a in n.names}
    named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert not {part for name in named for part in name.split(".")} & set(commands)


def test_cli_runs_load_no_module_they_do_not_execute():
    # Specs, reports, verdicts and point sets are plain classes, and
    # fractions (which loads decimal) and csv are imported where d-of-eps
    # and --csv use them, so neither the import nor a run of the gated
    # commands loads these.
    code = (
        "import contextlib, io, sys, fqcover.cli, fqcover.harness\n"
        "unused = ('dataclasses', 'fractions', 'decimal', 'csv', 'numpy.random', "
        "'concurrent.futures')\n"
        "print([m for m in unused if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [fqcover.cli.main(argv.split()) for argv in (\n"
        "        'cover-exhaustive --p 17 --d 2 --workers 2',\n"
        "        'geometry --p 3 --n 2 --sizes 5..6 --samples 2')]\n"
        "print(codes, [m for m in unused if m in sys.modules])\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n[0, 0] []\n"


def test_campaign_tasks_span_sizes(monkeypatch):
    # geometry-q9's 165 sets (sizes 28..60, 5 samples each) are cut into
    # tasks of 64 consecutive sets, so its checks run on three stacks.
    spec = ExperimentSpec(p=3, n=2, d=2, mode="sample", sizes=(28, 60), samples=5)
    tasks = harness._campaign(_tasks_of, spec, dict.fromkeys(range(28, 61), 5), 64)
    assert [sum(hi - lo for _, lo, hi in segments) for segments in tasks] == [64, 64, 37]
    assert tasks[0][-1] == (40, 0, 4) and tasks[1][0] == (40, 4, 5)
    assert [(s, i) for segments in tasks for s, lo, hi in segments for i in range(lo, hi)] == [
        (s, i) for s in range(28, 61) for i in range(5)]
    for totals, chunk in [({1: 0, 2: 3, 3: 0, 4: 130, 5: 1}, 64), ({2: 3, 4: 2}, 1),
                          ({1: 64, 2: 64}, 64), ({1: 0}, 8)]:
        tasks = harness._campaign(_tasks_of, spec, totals, chunk)
        assert all(lo < hi for segments in tasks for _, lo, hi in segments)
        lengths = [sum(hi - lo for _, lo, hi in segments) for segments in tasks]
        assert lengths == [chunk] * (len(tasks) - 1) + lengths[-1:] and lengths[-1:] <= [chunk]
        assert [(s, i) for segments in tasks for s, lo, hi in segments
                for i in range(lo, hi)] == [(s, i) for s, t in totals.items() for i in range(t)]
    stacks = []
    real = geometry._geometry_checks
    monkeypatch.setattr(geometry, "_geometry_checks",
                        lambda field, d, e, checks: stacks.append(e.sizes.tolist())
                        or real(field, d, e, checks))
    report = run_geometry(spec)
    assert [len(s) for s in stacks] == [64, 64, 37]
    assert stacks[0][:6] == [28] * 5 + [29] and stacks[2][-1] == 60
    assert report.tallies["cover"] == {"checked": 165, "passed": 165}


def _count_sample_rows(monkeypatch) -> list:
    """Patch `sampling.sample_rows` to log the sets of each call."""
    calls = []

    def spy(seed, universe, counters, sizes):
        calls.append(len(sizes))
        return draw(seed, universe, counters, sizes)
    draw = sampling.sample_rows
    monkeypatch.setattr(sampling, "sample_rows", spy)
    return calls


def test_geometry_q9_draws_its_sets_in_one_sampler_call(monkeypatch, tmp_path):
    # The 165 sets of its three tasks, 7,260 values, are under DRAW_CAP.
    calls = _count_sample_rows(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main(["geometry", "--p", "3", "--n", "2", "--sizes", "28..60", "--samples", "5",
                     "--workers", "1", "--out", str(out)]) == 0
    assert calls == [165]


def test_campaign_draws_split_at_the_cap_with_identical_reports(monkeypatch):
    # geometry-q9's tasks hold 2170, 2989 and 2101 values.  A call takes the
    # next task unless that would pass the cap; a task over it is drawn
    # alone.  The reports stay byte-identical at every cap and worker count.
    spec = ExperimentSpec(p=3, n=2, d=2, mode="sample", sizes=(28, 60), samples=5)
    single = canonical_json(run_geometry(spec).to_dict())
    calls = _count_sample_rows(monkeypatch)
    for cap, sets in [(7260, [165]), (7259, [128, 37]), (5158, [64, 101]),
                      (5089, [64, 64, 37]), (1, [64, 64, 37])]:
        monkeypatch.setattr(harness, "DRAW_CAP", cap)
        calls.clear()
        assert canonical_json(run_geometry(spec).to_dict()) == single
        assert calls == sets
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    for workers in (2, 3):
        spec.workers = workers
        assert canonical_json(run_geometry(spec).to_dict()) == single


def test_cover_sample_refuses_zero_samples_before_building_the_field(monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("a field was built")
    monkeypatch.setattr(harness, "make_field", build)
    monkeypatch.setattr(harness, "_FIELD_CACHE", {})
    assert cli.main(["cover-sample", "--p", "2", "--n", "20", "--samples", "0"]) == 3
    assert "--samples 0 checks nothing" in capsys.readouterr().err


def test_campaign_starts_no_pool_on_one_usable_cpu(monkeypatch):
    # 91 sets in two tasks: --workers 3 would start a pool of two.
    spec = ExperimentSpec(p=3, n=2, d=2, mode="sample", sizes=(28, 40), samples=7, seed=3)
    single = canonical_json(run_geometry(spec).to_dict())

    def pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    spec.workers = 3
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert canonical_json(run_geometry(spec).to_dict()) == single
    # Where the platform has no affinity call, the CPU count caps the pool.
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
    assert canonical_json(run_geometry(spec).to_dict()) == single


@pytest.mark.parametrize("run,spec", [
    (run_geometry, ExperimentSpec(p=3, d=2, mode="exhaustive", sizes=(5, 9))),
    (run_cover_sample, ExperimentSpec(p=13, d=2, mode="sample", sizes=(4, 13),
                                      samples=300, seed=7)),
    (run_cover_exhaustive, ExperimentSpec(p=7, d=2, mode="exhaustive", sizes=(1, 7))),
    # 91 sets in two tasks of 64 and 27, which span sizes and split size 37.
    (run_geometry, ExperimentSpec(p=3, n=2, d=2, mode="sample", sizes=(28, 40),
                                  samples=7, seed=3)),
    # Forced failures of every check: 117 sampled sets in two tasks, then
    # the roster.
    (run_geometry_forced, ExperimentSpec(p=3, n=2, d=2, mode="structured", sizes=(2, 40),
                                         samples=3, seed=5)),
])
def test_campaign_reports_identical_across_workers(run, spec, monkeypatch):
    # With the cover threshold pretended down to size 1, failing sets are
    # reported: cover-exhaustive expands them from orbit representatives.
    # Three workers get batches of unequal length, on a host of any CPU count.
    monkeypatch.setattr(scalar, "min_threshold_size", lambda q, d: 1)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    reports = []
    for workers in (1, 2, 3):
        spec.workers = workers
        reports.append(canonical_json(run(spec).to_dict()))
    assert reports[0] == reports[1] == reports[2]
    flagged = '"status":"counterexample"' in reports[0]
    assert flagged == (run is not run_geometry)
    if run is run_geometry_forced:
        checks = {c["check"] for c in json.loads(reports[0])["counterexamples"]}
        assert checks == set(geometry.POINT_CHECKS)


def test_cover_sample_block_verdicts_match_the_per_set_oracle():
    field = get_field(13, 1)
    assert all(dense_block_rows(field, k, 2, 40) > 0 for k in range(4, 14))
    report = run_cover_sample(ExperimentSpec(p=13, d=2, mode="sample", sizes=(4, 13),
                                             samples=40, seed=7))
    for k in range(4, 14):
        covered = sum(cover_verdict(PointSet.from_flat(field, 1, sample_indices(
            stream(7, i, k, harness.TAG_COVER), 13, k)), 2)["covers_units"] for i in range(40))
        assert report.tallies[str(k)] == {"checked": 40, "covered": covered,
                                          "threshold": k >= 7}


def test_geometry_size_range_is_clipped_to_the_space():
    report = run_geometry(ExperimentSpec(p=3, d=2, mode="sample", sizes=(-3, 2),
                                         samples=2, checks=("remainder",)))
    assert report.tallies == {"remainder": {"checked": 6, "passed": 6}}
    report = run_geometry(ExperimentSpec(p=2, d=2, mode="exhaustive", sizes=(3, 40),
                                         checks=("remainder",)))
    assert report.tallies["remainder"]["checked"] == math.comb(4, 3) + math.comb(4, 4)


def test_cli_internal_value_error_is_not_a_bad_spec(monkeypatch):
    def broken(spec):
        raise ValueError("internal shape error")
    monkeypatch.setattr(cli, "run_sharpness", broken)
    with pytest.raises(ValueError, match="internal shape error"):
        cli.main(["sharpness", "--p", "5"])


def test_cli_usage_errors_exit_3_not_the_counterexample_code():
    res = run_cli("cover-exhaustive", "--p", "7", "--bogus")
    assert res.returncode == 3
    assert "usage:" in res.stderr and "--bogus" in res.stderr
    assert res.stdout == ""
    assert run_cli("geometry", "--p", "five").returncode == 3
    assert run_cli("--help").returncode == 0


COMMANDS = ["selftest", "cover-exhaustive", "cover-sample", "sharpness", "geometry", "d-of-eps"]


def test_cli_help_lists_the_commands(capsys):
    with pytest.raises(SystemExit) as exit:
        cli.main(["--help"])
    assert exit.value.code == 0
    out = capsys.readouterr().out
    for command in COMMANDS:
        line = cli._COMMANDS[command][0]
        assert re.search(rf"^  {command} +{re.escape(line)}$", out, re.M), command


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_command_help_shows_its_usage(capsys, command):
    with pytest.raises(SystemExit) as exit:
        cli.main([command, "--help"])
    assert exit.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: fqcover {command} ")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["bogus", "--p", "5"], ["--p", "5", "sharpness"]])
def test_cli_without_a_command_first_is_a_usage_error(capsys, argv):
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: fqcover [-h]")


def test_readme_command_table_lists_every_command_and_its_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` +\| `([^`]*)` \|$", readme, re.MULTILINE)
    assert rows == [(name, options) for name, (_, options) in cli._COMMANDS.items()]


def test_cli_run_builds_only_its_commands_parser(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counting)
    assert cli.main(["sharpness", "--p", "5"]) == 0
    assert built == ["fqcover sharpness"]


def test_cli_console_script_reads_sys_argv(monkeypatch, capsys):
    assert cli.main(["sharpness", "--p", "5"]) == 0
    report = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["fqcover", "sharpness", "--p", "5"])
    assert cli.main() == 0
    assert capsys.readouterr().out == report != ""


@pytest.mark.parametrize("args", [
    ("selftest", "--samples", "3"),
    ("selftest", "--workers", "2"),
    ("selftest", "--csv", "x.csv"),
    ("sharpness", "--p", "5", "--seed", "1"),
    ("sharpness", "--p", "5", "--sizes", "2..3"),
    ("sharpness", "--p", "5", "--checks", "cover"),
    ("cover-exhaustive", "--p", "5", "--samples", "3"),
    ("cover-exhaustive", "--p", "5", "--checks", "cover"),
    ("cover-exhaustive", "--p", "5", "--csv", "x.csv"),
    ("cover-sample", "--p", "7", "--samples", "3", "--csv", "x.csv"),
])
def test_cli_refuses_flags_the_command_does_not_read(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(args)) == 3
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("args", [
    ("geometry", "--p", "5", "--checks", "bilinear"),
    ("geometry", "--p", "5", "--checks", "cover,cover"),
    ("geometry", "--p", "5", "--checks", "cover,nonsense"),
    ("cover-sample", "--p", "7", "--checks", "remainder"),
    ("cover-sample", "--p", "7", "--checks", "bilinear,bilinear"),
])
def test_cli_refuses_checks_the_command_does_not_run(args, tmp_path, monkeypatch, capsys):
    def build(*args):
        raise AssertionError("a field was built")
    _patch_commands(monkeypatch, "get_field", build)
    out = tmp_path / "report.json"
    assert cli.main([*args, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "checks" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["d-of-eps", "1/4", "--out"],
    ["cover-exhaustive", "--p", "5", "--out"],
    ["geometry", "--p", "3", "--sizes", "5..6", "--samples", "2", "--csv"],
])
@pytest.mark.parametrize("missing", [True, False])
def test_cli_refuses_an_unwritable_output_path(args, missing, tmp_path, monkeypatch, capsys):
    # A path in a missing directory is refused before any field is built;
    # one that cannot be opened, here a directory, when it is written.
    # Both are bad specs: exit 3, no traceback, nothing on stdout.
    if missing:
        def build(*args):
            raise AssertionError("a field was built")
        _patch_commands(monkeypatch, "get_field", build)
    path = tmp_path / "missing" / "x" if missing else tmp_path
    assert cli.main(args + [str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and f"bad spec: cannot write {path}" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_cli_cover_exhaustive_writes_report(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("cover-exhaustive", "--p", "5", "--n", "1", "--d", "2",
                  "--out", str(out))
    assert res.returncode == 0
    on_disk = out.read_text()
    assert on_disk == res.stdout
    report = json.loads(on_disk)
    assert report["schema"] == 1
    assert report["field"]["modulus"] == [0, 1]
    assert report["status"] == "ok"


def test_cli_geometry_csv(tmp_path):
    csv_path = tmp_path / "nu.csv"
    res = run_cli("geometry", "--p", "5", "--n", "1", "--d", "2",
                  "--mode", "sample", "--sizes", "3..6", "--samples", "3",
                  "--csv", str(csv_path))
    assert res.returncode == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t_index,nu,r_numerator"
    assert len(lines) == 6


def test_cli_geometry_csv_needs_the_remainder_check(tmp_path, monkeypatch, capsys):
    """Only the remainder check finds the sharpest case whose profile --csv
    writes: without it the run is refused before a field is built."""
    def build(*args):
        raise AssertionError("a field was built")
    _patch_commands(monkeypatch, "get_field", build)
    csv_path, out = tmp_path / "nu.csv", tmp_path / "report.json"
    assert cli.main(["geometry", "--p", "3", "--d", "2", "--checks", "cover",
                     "--sizes", "9..9", "--samples", "1", "--csv", str(csv_path),
                     "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "remainder" in captured.err
    assert not csv_path.exists() and not out.exists()


def test_cli_sharpness_on_f2_checked_nothing(capsys):
    """F_2 has no structured family and no subfield of size sqrt(2), so a
    sharpness run there would check nothing: it is refused, not reported ok."""
    assert cli.main(["sharpness", "--p", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "checked nothing" in captured.err


def test_cli_selftest_roster_covers_non_prime_fields():
    res = run_cli("selftest")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    qs = {f["q"] for f in report["extras"]["roster"]}
    assert qs == {2, 3, 4, 5, 7, 8, 9, 13, 16, 25}


def test_wall_clock_on_stderr_not_in_json():
    res = run_cli("d-of-eps", "1/4")
    assert "wall_clock" in res.stderr
    assert "wall_clock" not in res.stdout
    assert "verdicts" not in res.stderr
    # cover-exhaustive also says how many sets its search decided: at
    # q = 7, d = 2, {1}, its 6 children and the 9 children of the 4 of
    # those that miss a unit.
    res = run_cli("cover-exhaustive", "--p", "7")
    assert res.returncode == 0
    assert " verdicts=16 wall_clock=" in res.stderr
    assert "verdicts" not in res.stdout and "wall_clock" not in res.stdout
