#!/usr/bin/env python3
"""Exhaustive desk-scale sweep: every above-threshold A over the small-field
roster must cover the units, plus the full q = 3, d = 2 point-set sweep.

Writes one JSON report per configuration into --outdir and exits nonzero
if any sweep finds a counterexample.

Usage:
  python3 scripts/roster_sweep.py --outdir results/
"""

import argparse
import sys
from pathlib import Path

from fqcover.geometry import run_geometry
from fqcover.harness import ExperimentSpec, canonical_json
from fqcover.scalar import run_cover_exhaustive

ROSTER = [(3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2), (2, 3, 2), (3, 2, 2), (3, 1, 3)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    worst = 0
    for p, n, d in ROSTER:
        spec = ExperimentSpec(p=p, n=n, d=d, mode="exhaustive")
        report = run_cover_exhaustive(spec)
        path = args.outdir / f"cover_q{p ** n}_d{d}.json"
        path.write_text(canonical_json(report.to_dict()))
        total = sum(t["checked"] for t in report.tallies.values())
        print(f"q={p ** n} d={d}: {total} subsets, status={report.status} -> {path}")
        worst = max(worst, report.exit_code)

    spec = ExperimentSpec(p=3, n=1, d=2, mode="exhaustive", sizes=(6, 9))
    report = run_geometry(spec)
    path = args.outdir / "geometry_q3_d2.json"
    path.write_text(canonical_json(report.to_dict()))
    print(f"geometry q=3 d=2 sizes 6..9: status={report.status} -> {path}")
    worst = max(worst, report.exit_code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
