#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summed up as a BENCH_<n>.json.

Usage (from anywhere):

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_8.json \
        [--claim geometry-q9:sets_per_s] [--change "what the change did"]

PARENT_TREE and CHANGE_TREE are two checkouts of the repository.  Both lose
their `src/fqcover/__pycache__` first, and every run is made with
PYTHONDONTWRITEBYTECODE=1, so that neither side imports from a bytecode
cache the other lacks.  For each workload of the change tree's
BENCHMARK.json, pair i (seed 10 + i, ten pairs) runs `perfbench/run.py
--workload W --seed S --seconds T --trace 0`, with T that file's
run_seconds, in the parent tree first when i is even and in the change tree
first when i is odd.  The end-to-end metrics are those that BENCHMARK.json
lists.  The output is rewritten after
every pair, so an interrupted run keeps the pairs it finished.

A claimed metric is met when the change wins at least 9 of every 10 pairs
(ties count for neither side) and its median is better than the parent's
by more than the distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys


SEEDS = list(range(10, 20))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1 if metric["better"] == "higher" else -1
    wins = [sign * (c - p) for p, c in zip(parent, change)]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric.get("bound"),
        "parent_median": p_med, "change_median": c_med,
        "parent_quartiles": quartiles(parent), "change_quartiles": quartiles(change),
        "change_over_parent": c_med / p_med if p_med else None,
        "pairs_won": sum(w > 0 for w in wins), "pairs_lost": sum(w < 0 for w in wins),
        "pairs_tied": sum(w == 0 for w in wins),
        "parent_runs": parent, "change_runs": change,
    }


def claim_met(summary: dict) -> bool:
    pairs = len(summary["parent_runs"])
    q1, q3 = summary["parent_quartiles"]
    sign = 1 if summary["better"] == "higher" else -1
    gain = sign * (summary["change_median"] - summary["parent_median"])
    return 10 * summary["pairs_won"] >= 9 * pairs and gain > q3 - q1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--out", required=True)
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims a gain on")
    ap.add_argument("--change", default="", help="one line on what the change did")
    args = ap.parse_args()

    trees = {"parent": os.path.abspath(args.parent_tree),
             "change": os.path.abspath(args.change_tree)}
    for tree in trees.values():
        shutil.rmtree(os.path.join(tree, "src", "fqcover", "__pycache__"), ignore_errors=True)
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    claim = dict(zip(("workload", "metric"), args.claim.split(":"))) if args.claim else None

    record = {
        "change": args.change,
        "claim": claim,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "machine": f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
                   f"{platform.python_version()}; times scaled by perfbench/reference.py",
        "pairing": "pair i runs the parent first when i is even and the change first when i is odd",
        "conditions": "no __pycache__ under either src/fqcover, PYTHONDONTWRITEBYTECODE=1",
        "workloads": {},
    }
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(SEEDS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run_once(trees[side], workload, seed, seconds))
            record["workloads"][workload] = {
                "seeds": SEEDS[:i + 1], "pairs": i + 1,
                "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "metrics": {m["name"]: summarize(
                    m, *[[r["metrics"][m["name"]]["value"] for r in runs[s]]
                         for s in ("parent", "change")])
                    for m in spec["end_to_end"]},
            }
            if claim and claim["workload"] == workload:
                claim["met"] = claim_met(record["workloads"][workload]["metrics"][claim["metric"]])
            with open(args.out, "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
            print(f"{workload} pair {i + 1}/{len(SEEDS)} done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
