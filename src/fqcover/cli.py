"""Command line interface.

Subcommands: selftest, cover-exhaustive, cover-sample, sharpness,
geometry, d-of-eps.  The canonical JSON report goes to stdout (and to
--out when given); progress and wall-clock timing go to stderr so the
JSON artifact stays byte-reproducible.

Exit codes: 0 ok, 2 theorem counterexample, 3 bad spec, 4 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from .covering import BadEpsilonError
from .gf import (
    DegreeOutOfRangeError,
    FieldTooLargeError,
    NotPrimeError,
)
from .harness import (
    EXIT_BAD_SPEC,
    EXIT_BUDGET,
    BadSpecError,
    BudgetExceededError,
    ExperimentSpec,
    canonical_json,
    run_cover_exhaustive,
    run_cover_sample,
    run_d_of_eps,
    run_geometry,
    run_selftest,
    run_sharpness,
)


def _parse_sizes(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _add_common(sub: argparse.ArgumentParser, *, field_args: bool = True) -> None:
    if field_args:
        sub.add_argument("--p", type=int, required=True, help="field characteristic")
        sub.add_argument("--n", type=int, default=1, help="extension degree")
        sub.add_argument("--d", type=int, default=2, help="ambient dimension")
    sub.add_argument("--sizes", type=_parse_sizes, default=None, metavar="a..b",
                     help="size range for A or E")
    sub.add_argument("--samples", type=int, default=100, help="samples per size")
    sub.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    sub.add_argument("--checks", type=str, default=None,
                     help="comma list of checks to run")
    sub.add_argument("--workers", type=int, default=1, help="worker processes")
    sub.add_argument("--out", type=str, default=None, help="write JSON report here")
    sub.add_argument("--csv", type=str, default=None, help="write nu profile CSV here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqcover",
        description="exact finite-field coverage and incidence experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("selftest", help="identity and axiom suite on the field roster")
    _add_common(s, field_args=False)

    s = subs.add_parser("cover-exhaustive",
                        help="every A above the coverage threshold must cover the units")
    _add_common(s)

    s = subs.add_parser("cover-sample", help="seeded randomized coverage campaign")
    _add_common(s)
    s.add_argument("--structured", action="store_true",
                   help="also check the structured set roster (subfields, subgroups)")

    s = subs.add_parser("sharpness",
                        help="subfield closure and other non-covering witnesses")
    _add_common(s)

    s = subs.add_parser("geometry",
                        help="incidence bounds and identities on point sets")
    _add_common(s)
    s.add_argument("--mode", choices=["exhaustive", "sample", "structured"],
                   default="sample")

    s = subs.add_parser("d-of-eps",
                        help="exact d guaranteeing coverage for |A| >= C q^(1/2+eps)")
    s.add_argument("eps", type=str, help="epsilon as an exact rational, e.g. 1/4")
    s.add_argument("--out", type=str, default=None)
    return parser


def _spec_from_args(args: argparse.Namespace, mode: str) -> ExperimentSpec:
    checks = tuple(c for c in (args.checks or "").split(",") if c)
    spec = ExperimentSpec(
        p=args.p, n=args.n, d=args.d, mode=mode,
        sizes=args.sizes, samples=args.samples, seed=args.seed,
        checks=checks, workers=args.workers, out=args.out, csv=args.csv)
    spec.validate()
    return spec


def _emit(report, out_path: str | None, started: float) -> int:
    text = canonical_json(report.to_dict())
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    elapsed = time.monotonic() - started
    print(f"[fqcover] {report.command}: status={report.status} "
          f"wall_clock={elapsed:.3f}s", file=sys.stderr)
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "selftest":
            spec = ExperimentSpec(p=2, n=1, mode="sample", samples=args.samples,
                                  seed=args.seed, workers=args.workers,
                                  out=args.out, csv=args.csv)
            spec.validate()
            return _emit(run_selftest(spec), args.out, started)
        if args.command == "d-of-eps":
            try:
                eps = Fraction(args.eps)
            except (ValueError, ZeroDivisionError) as exc:
                raise BadSpecError(f"cannot parse epsilon {args.eps!r}: {exc}")
            return _emit(run_d_of_eps(eps), args.out, started)

        if args.command == "cover-exhaustive":
            spec = _spec_from_args(args, "exhaustive")
            return _emit(run_cover_exhaustive(spec), args.out, started)
        if args.command == "cover-sample":
            mode = "structured" if getattr(args, "structured", False) else "sample"
            spec = _spec_from_args(args, mode)
            return _emit(run_cover_sample(spec), args.out, started)
        if args.command == "sharpness":
            spec = _spec_from_args(args, "structured")
            return _emit(run_sharpness(spec), args.out, started)
        if args.command == "geometry":
            spec = _spec_from_args(args, args.mode)
            return _emit(run_geometry(spec), args.out, started)
        raise BadSpecError(f"unknown command {args.command!r}")
    except (BadSpecError, BadEpsilonError, NotPrimeError,
            DegreeOutOfRangeError, FieldTooLargeError) as exc:
        print(f"[fqcover] bad spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except BudgetExceededError as exc:
        print(f"[fqcover] {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
