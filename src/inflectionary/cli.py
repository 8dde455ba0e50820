"""Command-line front end.

Subcommands cover construction (compute), the verification checks
(verify), exact real-root censuses (roots, scan), rendering (plot) and the
closed-form invariant predictions (genus).  Exit codes are part of the
contract: 0 success/all-pass, 1 a check failed, 2 usage error, 3 violated
precondition (a PreconditionError), 4 I/O failure, 5 internal fault (any
other exception, any other ValueError included; its traceback goes to
stderr).  A report that is neither PASS nor FAIL exits 0 with a warning on
stderr.  Each verify family is a subcommand of its own, which declares the
flags that family reads and their defaults (``verify <family> --help``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

# poly first: a launch that compiles src/ from source reaches a lower peak
# RSS compiling poly here than at the deepest level of conjectures' imports
from .poly import parse_rational, poly_to_json
from .conjectures import (
    DEFAULT_LAMBDA_GRID,
    check_coeff_symmetry,
    check_determinant_identity,
    check_face_structure,
    check_homogenization_symmetry,
    check_shift_symmetry,
    check_support,
    conjecture4_scan,
    real_root_census,
    singular_probe,
)
from .inflection import (
    general_inflection,
    predicted_delta,
    predicted_genus,
    torsion_check,
)
from .reports import FAIL, PASS, PreconditionError, jsonable

LEMMA1_PAIRS = ((2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5))

OUTDIR_ENV = "INFLECTIONARY_OUTDIR"


# verify family -> its reports at one k (for lemma1, at one (mu, k)).  The
# family's flags and defaults live in its subparser.  The lambdas look the
# checks up by module-level name at call time, so a rebinding of those names
# (perfbench/tracing.py) is seen.
_VERIFY_CHECKS = {
    "symmetry": lambda k, args: [check_homogenization_symmetry(k), check_shift_symmetry(k)],
    "support": lambda k, args: [check_support(k), check_coeff_symmetry(k)],
    "faces": lambda k, args: [check_face_structure(k)],
    "lemma1": lambda pair, args: [check_determinant_identity(*pair)],
    "torsion": lambda k, args: [torsion_check(k, args.lambda0)],
    "singular": lambda k, args: [singular_probe(k)],
}


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _rational_list(text: str):
    parts = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty rational list")
    return tuple(_rational(piece) for piece in parts)


def _sweep(first: int):
    """--k-max's type for a family whose sweep starts at k = first: the ks
    to check.  A range, never an int, so that no parsed value ``is`` the
    default and escapes argparse's check that --k and --k-max exclude."""
    def sweep(text: str) -> range:
        last = int(text)
        if last < first:
            raise argparse.ArgumentTypeError(f"the sweep starts at k = {first}, got {last}")
        return range(first, last + 1)
    return sweep


def _window_corners(text: str):
    values = _rational_list(text)
    if len(values) != 4:
        raise argparse.ArgumentTypeError(
            "window needs exactly x_min,x_max,lambda_min,lambda_max")
    return values


@functools.cache  # built on the first main call; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inflectionary",
        description="Exact inflection polynomials of Legendre curves: "
                    "construction, verification, root censuses and plots.",
    )
    sub = parser.add_subparsers(dest="command")

    compute = sub.add_parser("compute", help="construct one inflection polynomial")
    compute.add_argument("--mu", type=int, required=True)
    compute.add_argument("--k", type=int, required=True)
    compute.add_argument("--format", choices=("json", "text"), default="json")

    verify = sub.add_parser("verify", help="run one verification check family")
    families = verify.add_subparsers(dest="check", required=True)
    for name, claims, first, k_max in (
            ("symmetry", "homogenization and shift symmetry", 1, 8),
            ("support", "support and coefficient symmetry", 1, 8),
            ("faces", "the two faces at the origin", 2, 6)):
        family = families.add_parser(name, help=f"{claims} of P(1, k)")
        ks = family.add_mutually_exclusive_group()
        ks.add_argument("--k", type=int, help="check this k only")
        ks.add_argument("--k-max", type=_sweep(first), dest="k_max",
                        default=range(first, k_max + 1),
                        help=f"check k = {first}..K_MAX (default: {k_max})")
    lemma1 = families.add_parser("lemma1", help="template and Wronskian agree on P(mu, k)")
    lemma1.add_argument("--mu", type=int, help="with --k (default: six pairs)")
    lemma1.add_argument("--k", type=int)
    torsion = families.add_parser("torsion", help="P(k-1, k) and the 2k-division polynomial")
    torsion.add_argument("--k", type=int, default=2, help="(default: 2)")
    torsion.add_argument("--lambda", type=_rational, dest="lambda0",
                         default=Fraction(-1), help="(default: -1)")
    singular = families.add_parser("singular", help="only the three known singular points")
    singular.add_argument("--k", type=int, default=2, help="(default: 2)")

    roots = sub.add_parser("roots", help="census the real roots at one lambda")
    roots.add_argument("--mu", type=int, required=True)
    roots.add_argument("--k", type=int, required=True)
    roots.add_argument("--lambda", type=_rational, dest="lambda0", required=True)

    scan = sub.add_parser("scan", help="sweep a lambda grid and check the root-count law")
    scan.add_argument("--mu", type=int, required=True)
    scan.add_argument("--k", type=int, required=True)
    scan.add_argument("--lambda-grid", type=_rational_list, dest="grid",
                      default=DEFAULT_LAMBDA_GRID)

    plot = sub.add_parser("plot", help="render the real locus to an SVG file")
    plot.add_argument("--mu", type=int, required=True)
    plot.add_argument("--k", type=int, required=True)
    plot.add_argument("--out", required=True)
    plot.add_argument("--window", type=_window_corners, default="-1,3,-1,3",
                      help="x_min,x_max,lambda_min,lambda_max (rationals)")
    plot.add_argument("--nx", type=int, default=512)
    plot.add_argument("--nlambda", type=int, default=512)

    genus = sub.add_parser("genus", help="print the predicted plane-model invariants")
    genus.add_argument("--k", type=int, required=True)

    return parser


def cmd_compute(args) -> int:
    poly = general_inflection(args.mu, args.k)
    if args.format == "json":
        print(poly_to_json(poly))
    else:
        print(poly.to_text())
    return 0


class _UsageError(Exception):
    pass


def _print_reports(reports) -> int:
    for report in reports:
        print(report.to_json())
    if any(r.verdict == FAIL for r in reports):
        return 1
    warnings = sum(1 for r in reports if r.verdict != PASS)
    if warnings:
        print(f"warning: {warnings} check(s) did not fully resolve", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.check == "lemma1":
        if (args.mu is None) != (args.k is None):
            raise _UsageError("lemma1 needs both --mu and --k, or neither")
        ks = LEMMA1_PAIRS if args.mu is None else [(args.mu, args.k)]
    else:
        ks = args.k_max if args.k is None else [args.k]  # torsion, singular: --k has a default
    checks = _VERIFY_CHECKS[args.check]
    return _print_reports([report for k in ks for report in checks(k, args)])


def cmd_roots(args) -> int:
    census = real_root_census(args.mu, args.k, args.lambda0)
    print(json.dumps(jsonable(census.to_json_dict()), separators=(",", ":")))
    return 0


def cmd_scan(args) -> int:
    return _print_reports([conjecture4_scan(args.mu, args.k, args.grid)])


def cmd_plot(args) -> int:
    from .render import Window, render_curve
    try:
        window = Window(*args.window, args.nx, args.nlambda)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    poly = general_inflection(args.mu, args.k)
    out = args.out
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(out):
        os.makedirs(outdir, exist_ok=True)
        out = os.path.join(outdir, out)
    render_curve(poly, window, out)
    return 0


def cmd_genus(args) -> int:
    delta = predicted_delta(args.k)
    genus = predicted_genus(args.k)
    print(f"delta={delta} genus={genus}")
    if genus < 0:
        print(f"note: predicted genus is negative at k={args.k}", file=sys.stderr)
    return 0


_DISPATCH = {
    "compute": cmd_compute,
    "verify": cmd_verify,
    "roots": cmd_roots,
    "scan": cmd_scan,
    "plot": cmd_plot,
    "genus": cmd_genus,
}


# Flags whose values may start with "-" (negative rationals, grids,
# windows); merged into --flag=value form so argparse never mistakes the
# value for an option.
_VALUE_FLAGS = ("--lambda", "--lambda-grid", "--window")


def _merge_value_flags(argv):
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_value_flags(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception:
        # an internal fault must not exit 1, which means "a check failed";
        # traceback is loaded only here, off every launch's path
        import traceback
        traceback.print_exc()
        return 5


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
