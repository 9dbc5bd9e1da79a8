"""Tables, recorded digests and the recorded baseline of the benchmark.

Usage (from the repository root):

    python3 perfbench/summary.py                  # end-to-end table, one row per workload
    python3 perfbench/summary.py --trace          # per-layer table from the traced runs
    python3 perfbench/summary.py --record-digests # re-record digests.json, seeds 0-19
    python3 perfbench/summary.py --baseline       # seeds 1-10 per workload -> baseline.json

The tables run every workload at seed 0.  --seconds sets the length of one
benchmark run (default: run_seconds of BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import numpy as np

from run import HERE, ROOT, Bench, measure
from spans import LAYERS
from workloads import DIGESTS_PATH, PER_LAYER, WORKLOADS, report_digest

BASELINE_PATH = os.path.join(HERE, "baseline.json")
DIGEST_SEEDS = range(0, 20)
BASELINE_SEEDS = range(1, 11)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def end_to_end_table(seconds: float) -> None:
    cols = [f"{m['name']} [{m['unit']}]" for m in SPEC["end_to_end"]]
    cols += ["error_rate", "runs"]
    print(f"{'workload':<20}" + "".join(f"{c:>20}" for c in cols))
    for workload in WORKLOADS:
        bench, metrics = measure(workload, 0, seconds, trace=False)
        row = [fmt(metrics[m["name"]]) for m in SPEC["end_to_end"]]
        row += [fmt(bench.failed / bench.attempted), str(bench.attempted)]
        print(f"{workload:<20}" + "".join(f"{v:>20}" for v in row), flush=True)


def per_layer_table(seconds: float) -> None:
    results = {w: measure(w, 0, seconds, trace=True)[1] for w in WORKLOADS}
    print(f"{'metric':<34}{'unit':<9}" + "".join(f"{w:>20}" for w in results))
    for name, spec in PER_LAYER.items():
        unit = spec.unit + ("*" if spec.computed else "")
        row = [fmt(m[name]) for m in results.values()]
        print(f"{name:<34}{unit:<9}" + "".join(f"{v:>20}" for v in row))
    print("* computed from set sizes and array shapes, not measured")
    for w, m in results.items():
        parts = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.overhead_s"]
        print(f"{w}: layer self times plus trace.overhead_s sum to {parts:.6f} s, "
              f"traced run {m['trace.run_s']:.6f} s")


def record_digests() -> None:
    digests = {"report_schema": None, "workers": 1, "digests": {}}
    for name in WORKLOADS:
        for seed in DIGEST_SEEDS:
            bench = Bench(name, seed, digests={"report_schema": None, "digests": {}})
            run = bench.cli_run(workers=1)
            if run is None or bench.failed:
                raise SystemExit(f"{name} seed {seed} failed the gate; nothing recorded")
            report = run[1]["report"]
            digests["report_schema"] = json.loads(report)["schema"]
            digests["digests"].setdefault(name, {})[str(seed)] = report_digest(report)
            print(f"{name} seed {seed}: {digests['digests'][name][str(seed)]}")
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def baseline(seconds: float) -> None:
    """Run every workload at each baseline seed, print each metric's median
    and spread against its bound, and write baseline.json."""
    out = {"machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                       "python": platform.python_version(), "numpy": np.__version__},
           "seeds": list(BASELINE_SEEDS), "seconds": seconds,
           "end_to_end": {}, "per_layer": {},
           "layer_map": {name: spec.moves for name, spec in PER_LAYER.items()}}
    for name in WORKLOADS:
        runs = [measure(name, seed, seconds, trace=False) for seed in BASELINE_SEEDS]
        row = {"attempted": sum(b.attempted for b, _ in runs),
               "failed": sum(b.failed for b, _ in runs)}
        for metric in SPEC["end_to_end"]:
            values = [m[metric["name"]] for _, m in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            row[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": spread, "values": values}
            print(f"{name:<20}{metric['name']:<14}median {med:<12.5g}"
                  f"spread {spread:.3f} (bound {metric['bound']})", flush=True)
        out["end_to_end"][name] = row
        out["per_layer"][name] = measure(name, BASELINE_SEEDS[0], seconds, trace=True)[1]
    with open(BASELINE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true", help="per-layer table")
    mode.add_argument("--record-digests", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    if args.record_digests:
        record_digests()
    elif args.baseline:
        baseline(args.seconds)
    elif args.trace:
        per_layer_table(args.seconds)
    else:
        end_to_end_table(args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
