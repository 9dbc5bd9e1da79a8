#!/usr/bin/env python3
"""Survey of non-covering witnesses near the size threshold.

For even-degree fields the sqrt(q) subfield is closed under products and
sums, so its d-fold product sumset never reaches the other units no
matter how large d gets.  This script tabulates that witness and the
largest non-covering structured family found per field, with the size
ratio against q^{1/2 + 1/(2d)}.

Usage:
  python3 scripts/sharpness_survey.py --d 2 --outdir results/
"""

import argparse
import sys
from pathlib import Path

from fqcover.harness import ExperimentSpec, canonical_json
from fqcover.scalar import run_sharpness

FIELDS = [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'q':>6} {'subfield':>9} {'closed':>7} {'covers':>7} {'ratio':>8}  largest non-covering")
    worst = 0
    for p, n in FIELDS:
        spec = ExperimentSpec(p=p, n=n, d=args.d, mode="structured")
        report = run_sharpness(spec)
        path = args.outdir / f"sharpness_q{p ** n}_d{args.d}.json"
        path.write_text(canonical_json(report.to_dict()))
        sub = report.extras["sqrt_subfield"]
        big = report.extras["largest_noncovering"]
        big_desc = f"{big['name']} (|A|={big['size']}, ratio {big['ratio']:.3f})" \
            if big else "none"
        print(f"{p ** n:>6} {sub['size']:>9} {str(sub['closed_up_to_d6']):>7} "
              f"{str(sub['covers_units']):>7} {sub['ratio']:>8.3f}  {big_desc}")
        worst = max(worst, report.exit_code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
