"""Command-line front end.

Subcommands cover construction (compute), the verification checks
(verify), exact real-root censuses (roots, scan), rendering (plot) and the
closed-form invariant predictions (genus).  Exit codes are part of the
contract: 0 success/all-pass, 1 a check failed, 2 usage error, 3 violated
precondition (a PreconditionError), 4 I/O failure, 5 internal fault (any
other exception, any other ValueError included; its traceback goes to
stderr).  A report that is neither PASS nor FAIL exits 0 with a warning on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

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
from .poly import parse_rational, poly_to_json
from .reports import FAIL, PASS, PreconditionError, jsonable

LEMMA1_PAIRS = ((2, 3), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5))

OUTDIR_ENV = "INFLECTIONARY_OUTDIR"


def _lemma1_reports(k, args):
    if (args.mu is None) != (k is None):
        raise _UsageError("lemma1 needs both --mu and --k, or neither")
    pairs = [(args.mu, k)] if args.mu is not None else LEMMA1_PAIRS
    return [check_determinant_identity(mu, k) for mu, k in pairs]


# verify family -> (flags it reads, first k, default --k-max, checks(k, args)).
# Any other flag is a usage error, not silently dropped; so are --k and
# --k-max together, since --k wins.  A family with a default --k-max sweeps
# k = first..k-max (defaults stay inside desk scale); for the others the first
# k is the default --k.  The lambdas look the checks up by module-level name
# at call time, so a rebinding of those names (perfbench/tracing.py) is seen.
_VERIFY_FAMILIES = {
    "symmetry": (("k", "k_max"), 1, 8, lambda k, args: [
        check_homogenization_symmetry(k), check_shift_symmetry(k)]),
    "support": (("k", "k_max"), 1, 8, lambda k, args: [
        check_support(k), check_coeff_symmetry(k)]),
    "faces": (("k", "k_max"), 2, 6, lambda k, args: [check_face_structure(k)]),
    "lemma1": (("mu", "k"), None, None, _lemma1_reports),
    "torsion": (("k", "lambda0"), 2, None, lambda k, args: [torsion_check(
        k, Fraction(-1) if args.lambda0 is None else args.lambda0)]),
    "singular": (("k",), 2, None, lambda k, args: [singular_probe(k)]),
}
_VERIFY_FLAG_NAMES = {"k": "--k", "k_max": "--k-max", "mu": "--mu", "lambda0": "--lambda"}


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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    verify.add_argument("check", choices=(
        "symmetry", "support", "faces", "lemma1", "torsion", "singular"))
    verify.add_argument("--k", type=int)
    verify.add_argument("--k-max", type=_positive_int, dest="k_max")
    verify.add_argument("--mu", type=int)
    verify.add_argument("--lambda", type=_rational, dest="lambda0")

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


def _verify_reports(args):
    check = args.check
    flags, first_k, k_max, checks = _VERIFY_FAMILIES[check]
    unread = [flag for dest, flag in _VERIFY_FLAG_NAMES.items()
              if getattr(args, dest) is not None and dest not in flags]
    if unread:
        raise _UsageError(f"verify {check} does not read {', '.join(unread)}")
    if args.k is not None and args.k_max is not None:
        raise _UsageError("--k and --k-max are exclusive")
    if k_max is None or args.k is not None:
        return checks(first_k if args.k is None else args.k, args)
    ks = range(first_k, (args.k_max or k_max) + 1)
    if not ks:
        raise _UsageError(f"{check} starts at k = {first_k}; --k-max must be at least {first_k}")
    return [report for k in ks for report in checks(k, args)]


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
    return _print_reports(_verify_reports(args))


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
