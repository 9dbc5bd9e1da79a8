"""Command line interface.

Commands: selftest, cover-exhaustive, cover-sample, sharpness, geometry,
d-of-eps; `fqcover --help` lists them and `fqcover <command> --help` shows
the options of one.  The canonical JSON report goes to stdout (and to --out
when given); progress and wall-clock timing go to stderr so the JSON
artifact stays byte-reproducible.

Exit codes: 0 ok, 2 theorem counterexample, 3 bad spec (a usage error
included), 4 enumeration or memory budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .covering import BadEpsilonError
from .geometry import run_geometry
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
)
from .scalar import run_cover_exhaustive, run_cover_sample, run_d_of_eps, run_sharpness
from .selftest import run_selftest


def _parse_sizes(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    return int(lo), int(hi if sep else lo)


def _parse_checks(text: str) -> tuple[str, ...]:
    return tuple(c for c in text.split(",") if c)


# Every argument a command can take; each command takes only those it reads.
_OPTIONS = {
    "--p": dict(type=int, required=True, help="field characteristic"),
    "--n": dict(type=int, default=1, help="extension degree"),
    "--d": dict(type=int, default=2, help="ambient dimension"),
    "--sizes": dict(type=_parse_sizes, default=None, metavar="a..b",
                    help="size range for A or E"),
    "--samples": dict(type=int, default=100, help="samples per size"),
    "--seed": dict(type=int, default=0, help="64-bit RNG seed"),
    "--checks": dict(type=_parse_checks, default=(), help="comma list of checks to run"),
    "--workers": dict(type=int, default=1, help="worker processes"),
    "--out": dict(type=str, default=None, help="write JSON report here"),
    "--csv": dict(type=str, default=None, help="write nu profile CSV here"),
    "--structured": dict(action="store_true",
                         help="also check the structured set roster (subfields, subgroups)"),
    "--mode": dict(choices=["exhaustive", "sample", "structured"], default="sample"),
    "eps": dict(type=str, help="epsilon as an exact rational, e.g. 1/4"),
}

# command -> (help line, the arguments it takes, in order)
_COMMANDS = {
    "selftest": ("identity and axiom suite on the field roster", "--seed --out"),
    "cover-exhaustive": ("every A above the coverage threshold must cover the units",
                         "--p --n --d --sizes --seed --workers --out"),
    "cover-sample": (
        "seeded randomized coverage campaign",
        "--p --n --d --sizes --samples --seed --checks --workers --out --structured"),
    "sharpness": ("subfield closure and other non-covering witnesses", "--p --n --d --out"),
    "geometry": ("incidence bounds and identities on point sets",
                 "--p --n --d --sizes --samples --seed --checks --workers --out --csv --mode"),
    "d-of-eps": ("exact d guaranteeing coverage for |A| >= C q^(1/2+eps)", "eps --out"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors end with exit code 3, as any other bad spec does, and
    not with argparse's 2, which is the counterexample code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise BadSpecError(message)


def _parse_args(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command argv[0] and its arguments, read by that command's parser
    alone; any other argv[0] gets the overview: help or a usage error."""
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        overview = _Parser(
            prog="fqcover", formatter_class=argparse.RawDescriptionHelpFormatter,
            description="exact finite-field coverage and incidence experiments",
            epilog="commands:\n" + "".join(
                f"  {name:<18}{line}\n" for name, (line, _) in _COMMANDS.items()))
        overview.add_argument("command", choices=_COMMANDS,
                              help="'fqcover <command> --help' lists its options")
        overview.parse_args(argv[:1])  # argv[0] is no command: help or a usage error
    parser = _Parser(prog=f"fqcover {command}")
    for name in _COMMANDS[command][1].split():
        parser.add_argument(name, **_OPTIONS[name])
    return command, parser.parse_args(argv[1:])


def _spec_from_args(args: argparse.Namespace, **fixed) -> ExperimentSpec:
    """The spec of a run: the options the command took, the spec's
    defaults for the rest."""
    given = {k: v for k, v in vars(args).items() if k in ExperimentSpec.__slots__}
    spec = ExperimentSpec(**{**given, **fixed})
    spec.validate()
    return spec


def _require_writable(path: str) -> None:
    """Refuse an output path whose directory is missing or not writable,
    before the run it would end."""
    folder = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise BadSpecError(f"cannot write {path}: {folder} is not a writable directory")


def _emit(report, out_path: str | None, started: float) -> int:
    text = canonical_json(report.to_dict())
    # The file first: a report that cannot be written leaves stdout empty.
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise BadSpecError(f"cannot write {out_path}: {exc}") from exc
    sys.stdout.write(text)
    elapsed = time.monotonic() - started
    stats = "".join(f" {k}={v}" for k, v in report.stats.items())
    print(f"[fqcover] {report.command}: status={report.status}{stats} "
          f"wall_clock={elapsed:.3f}s", file=sys.stderr)
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    try:
        command, args = _parse_args(sys.argv[1:] if argv is None else argv)
        for path in (args.out, vars(args).get("csv")):
            if path:
                _require_writable(path)
        if command == "selftest":
            report = run_selftest(_spec_from_args(args, p=2))
        elif command == "d-of-eps":
            from fractions import Fraction  # loads decimal; only d-of-eps reads a rational
            try:
                eps = Fraction(args.eps)
            except (ValueError, ZeroDivisionError) as exc:
                raise BadSpecError(f"cannot parse epsilon {args.eps!r}: {exc}")
            report = run_d_of_eps(eps)
        elif command == "cover-exhaustive":
            report = run_cover_exhaustive(_spec_from_args(args, mode="exhaustive"))
        elif command == "cover-sample":
            report = run_cover_sample(_spec_from_args(
                args, mode="structured" if args.structured else "sample"))
        elif command == "sharpness":
            report = run_sharpness(_spec_from_args(args, mode="structured"))
        else:
            report = run_geometry(_spec_from_args(args))
        return _emit(report, args.out, started)
    except (BadSpecError, BadEpsilonError, NotPrimeError,
            DegreeOutOfRangeError, FieldTooLargeError) as exc:
        print(f"[fqcover] bad spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except BudgetExceededError as exc:
        print(f"[fqcover] {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
