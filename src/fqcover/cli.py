"""Command line interface.

Subcommands: selftest, cover-exhaustive, cover-sample, sharpness,
geometry, d-of-eps.  The canonical JSON report goes to stdout (and to
--out when given); progress and wall-clock timing go to stderr so the
JSON artifact stays byte-reproducible.

Exit codes: 0 ok, 2 theorem counterexample, 3 bad spec (a usage error
included), 4 enumeration or memory budget exceeded.
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


def _parse_checks(text: str) -> tuple[str, ...]:
    return tuple(c for c in text.split(",") if c)


# Every option a subcommand can take; each subcommand takes only those it reads.
_OPTIONS = {
    "p": dict(type=int, required=True, help="field characteristic"),
    "n": dict(type=int, default=1, help="extension degree"),
    "d": dict(type=int, default=2, help="ambient dimension"),
    "sizes": dict(type=_parse_sizes, default=None, metavar="a..b",
                  help="size range for A or E"),
    "samples": dict(type=int, default=100, help="samples per size"),
    "seed": dict(type=int, default=0, help="64-bit RNG seed"),
    "checks": dict(type=_parse_checks, default=(), help="comma list of checks to run"),
    "workers": dict(type=int, default=1, help="worker processes"),
    "out": dict(type=str, default=None, help="write JSON report here"),
    "csv": dict(type=str, default=None, help="write nu profile CSV here"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors end with exit code 3, as any other bad spec does, and
    not with argparse's 2, which is the counterexample code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise BadSpecError(message)


def _add_options(sub: argparse.ArgumentParser, names: str) -> None:
    for name in names.split():
        sub.add_argument(f"--{name}", **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fqcover",
        description="exact finite-field coverage and incidence experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("selftest", help="identity and axiom suite on the field roster")
    _add_options(s, "seed out")

    s = subs.add_parser("cover-exhaustive",
                        help="every A above the coverage threshold must cover the units")
    _add_options(s, "p n d sizes seed workers out")

    s = subs.add_parser("cover-sample", help="seeded randomized coverage campaign")
    _add_options(s, "p n d sizes samples seed checks workers out")
    s.add_argument("--structured", action="store_true",
                   help="also check the structured set roster (subfields, subgroups)")

    s = subs.add_parser("sharpness",
                        help="subfield closure and other non-covering witnesses")
    _add_options(s, "p n d out")

    s = subs.add_parser("geometry",
                        help="incidence bounds and identities on point sets")
    _add_options(s, "p n d sizes samples seed checks workers out csv")
    s.add_argument("--mode", choices=["exhaustive", "sample", "structured"],
                   default="sample")

    s = subs.add_parser("d-of-eps",
                        help="exact d guaranteeing coverage for |A| >= C q^(1/2+eps)")
    s.add_argument("eps", type=str, help="epsilon as an exact rational, e.g. 1/4")
    _add_options(s, "out")
    return parser


def _spec_from_args(args: argparse.Namespace, **fixed) -> ExperimentSpec:
    """The spec of a run: the options the subcommand took, the spec's
    defaults for the rest."""
    given = {k: v for k, v in vars(args).items() if k in ExperimentSpec.__dataclass_fields__}
    spec = ExperimentSpec(**{**given, **fixed})
    spec.validate()
    return spec


def _emit(report, out_path: str | None, started: float) -> int:
    text = canonical_json(report.to_dict())
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    elapsed = time.monotonic() - started
    stats = "".join(f" {k}={v}" for k, v in report.stats.items())
    print(f"[fqcover] {report.command}: status={report.status}{stats} "
          f"wall_clock={elapsed:.3f}s", file=sys.stderr)
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        if args.command == "selftest":
            return _emit(run_selftest(_spec_from_args(args, p=2)), args.out, started)
        if args.command == "d-of-eps":
            try:
                eps = Fraction(args.eps)
            except (ValueError, ZeroDivisionError) as exc:
                raise BadSpecError(f"cannot parse epsilon {args.eps!r}: {exc}")
            return _emit(run_d_of_eps(eps), args.out, started)

        if args.command == "cover-exhaustive":
            spec = _spec_from_args(args, mode="exhaustive")
            return _emit(run_cover_exhaustive(spec), args.out, started)
        if args.command == "cover-sample":
            spec = _spec_from_args(args, mode="structured" if args.structured else "sample")
            return _emit(run_cover_sample(spec), args.out, started)
        if args.command == "sharpness":
            spec = _spec_from_args(args, mode="structured")
            return _emit(run_sharpness(spec), args.out, started)
        if args.command == "geometry":
            return _emit(run_geometry(_spec_from_args(args)), args.out, started)
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
